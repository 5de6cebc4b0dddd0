// The durable checkpoint repository: put/materialize byte-fidelity against
// literal images, content dedup across histories of self-contained images,
// retirement, refcount GC with epoch switch, and crash recovery — including
// an every-byte truncation sweep of both the journal and the segment (the
// sanitize-preset run of this file is the no-UB durability acceptance check).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/checkpoint/epoch_coordinator.h"
#include "src/net/topology.h"
#include "src/repo/checkpoint_repo.h"
#include "src/repo/io_fault.h"
#include "src/repo/repo_format.h"
#include "src/sim/archive.h"
#include "src/sim/digest.h"
#include "src/sim/image.h"
#include "src/sim/random.h"
#include "src/timetravel/basic_run.h"
#include "src/timetravel/checkpoint_tree.h"

namespace tcsim {
namespace {

namespace fs = std::filesystem;

// A fresh directory per test, removed on teardown.
class RepoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("tcsim_repo_") + info->test_suite_name() + "_" +
             info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<CheckpointRepo> OpenRepo() {
    std::string error;
    auto repo = CheckpointRepo::Open(dir_, RepoOptions{}, &error);
    EXPECT_NE(repo, nullptr) << error;
    return repo;
  }

  std::string dir_;
};

std::vector<uint8_t> PayloadOf(uint64_t value) {
  ArchiveWriter w;
  w.Write<uint64_t>(value);
  return w.Take();
}

// An image with two payload chunks. Images sharing a value share that
// payload, which the repository stores once.
std::vector<uint8_t> FullImage(uint64_t a, uint64_t b) {
  CheckpointImageBuilder builder;
  builder.AddChunk("a", PayloadOf(a));
  builder.AddChunk("b", PayloadOf(b));
  return builder.Serialize();
}

// The list one CommitBatch publishes, in order.
CheckpointRepo::Images Batch(std::vector<std::vector<uint8_t>> images) {
  CheckpointRepo::Images batch;
  for (std::vector<uint8_t>& image : images) {
    batch.push_back(
        std::make_shared<const std::vector<uint8_t>>(std::move(image)));
  }
  return batch;
}

// Segment bytes one stored payload of FullImage occupies.
constexpr uint64_t kStoredPayload = kSegmentRecordOverhead + sizeof(uint64_t);

// `bytes` (a multiple of 8) of pseudo-random content: equal seeds give equal
// payloads, distinct seeds distinct ones.
std::vector<uint8_t> SeededPayload(uint64_t seed, size_t bytes) {
  std::vector<uint8_t> out(bytes);
  Rng rng(seed);
  for (size_t i = 0; i < bytes; i += 8) {
    const uint64_t x = rng.NextUint64();
    std::memcpy(&out[i], &x, 8);
  }
  return out;
}

// Digest over every live image's materialization, in handle order.
uint64_t FoldMaterializations(CheckpointRepo* repo) {
  Fnv1aDigest folded;
  for (const uint64_t handle : repo->LiveHandles()) {
    const std::vector<uint8_t> image = repo->Materialize(handle);
    EXPECT_FALSE(image.empty()) << repo->error();
    folded.MixBytes(image.data(), image.size());
  }
  return folded.value();
}

// --- Put / Materialize fidelity ------------------------------------------------

TEST_F(RepoTest, MaterializeMatchesLiteralSelfContainedImages) {
  // Materialization rebuilds the stored image, every chunk in the original
  // chunk order, whether or not its payload was shared with an earlier
  // image: exactly the bytes put.
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(10, 20));
  ASSERT_NE(h1, 0u) << repo->error();
  const uint64_t h2 = repo->PutImage(FullImage(11, 20));
  ASSERT_NE(h2, 0u) << repo->error();

  EXPECT_EQ(repo->Materialize(h1), FullImage(10, 20));
  EXPECT_EQ(repo->Materialize(h2), FullImage(11, 20));

  // A one-chunk image whose payload the repository already holds.
  CheckpointImageBuilder one_chunk;
  one_chunk.AddChunk("a", PayloadOf(10));
  const std::vector<uint8_t> put = one_chunk.Serialize();
  const uint64_t h3 = repo->PutImage(put);
  ASSERT_NE(h3, 0u) << repo->error();
  EXPECT_EQ(repo->Materialize(h3), put);
}

TEST_F(RepoTest, DedupStoresSharedPayloadsOnce) {
  auto repo = OpenRepo();
  // Two unrelated images sharing chunk contents: payload bytes land once.
  ASSERT_NE(repo->PutImage(FullImage(10, 20)), 0u) << repo->error();
  const uint64_t physical_after_first = repo->physical_put_bytes();
  ASSERT_NE(repo->PutImage(FullImage(10, 20)), 0u) << repo->error();
  EXPECT_EQ(repo->physical_put_bytes(), physical_after_first);
  EXPECT_EQ(repo->logical_put_bytes(), 2 * physical_after_first);
}

TEST_F(RepoTest, RejectsBadPuts) {
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(10, 20));
  ASSERT_NE(h1, 0u);

  const auto expect_refused = [&repo](const std::vector<uint8_t>& image,
                                      const std::string& why) {
    EXPECT_EQ(repo->PutImage(image), 0u) << why;
    EXPECT_NE(repo->error().find(why), std::string::npos) << repo->error();
  };
  // Garbage bytes.
  expect_refused({1, 2, 3}, "malformed image");
  // A flipped payload bit.
  std::vector<uint8_t> flipped = FullImage(11, 20);
  flipped.back() ^= 0x10;
  expect_refused(flipped, "CRC mismatch in chunk 'b'");
  // An image of the retired format version 2: image id 5, parent 0, and a
  // kind byte (1, a payload) before the chunk's length.
  ArchiveWriter v2;
  v2.Write<uint32_t>(kImageMagic);
  v2.Write<uint32_t>(2);
  v2.Write<uint64_t>(5);
  v2.Write<uint64_t>(0);
  v2.Write<uint64_t>(1);
  v2.WriteString("a");
  v2.Write<uint8_t>(1);
  v2.Write<uint64_t>(sizeof(uint64_t));
  v2.Write<uint32_t>(Crc32(PayloadOf(17)));
  v2.WriteBytes(PayloadOf(17).data(), sizeof(uint64_t));
  expect_refused(v2.Take(), "malformed image: unsupported format version 2");
  // A v1 image repeating chunk 'a', whose dropped second copy fails its CRC
  // (66 bytes): the view refuses it, so the repository must too.
  CheckpointImageBuilder two_copies;
  two_copies.AddChunk("a", {1, 2, 3, 4});
  two_copies.AddChunk("a", {1, 2, 3, 4});
  std::vector<uint8_t> shadowed = two_copies.Serialize();
  ASSERT_EQ(shadowed.size(), 66u);
  ASSERT_TRUE(CheckpointImageView(shadowed).ok());
  shadowed.back() ^= 0x01;
  ASSERT_FALSE(CheckpointImageView(shadowed).ok());
  expect_refused(shadowed, "malformed image: CRC mismatch in chunk 'a'");
  // Rejections leave the repository unchanged.
  EXPECT_EQ(repo->image_count(), 1u);
  EXPECT_EQ(repo->LiveHandles(), (std::vector<uint64_t>{h1}));
}

// --- Retire / GC ----------------------------------------------------------------

TEST_F(RepoTest, RetireKeepsSharedPayloadsLive) {
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(10, 20));
  const uint64_t h2 = repo->PutImage(FullImage(11, 20));
  ASSERT_NE(h2, 0u) << repo->error();
  EXPECT_EQ(repo->live_payload_bytes(), 3 * kStoredPayload);

  ASSERT_TRUE(repo->RetireImage(h1));
  EXPECT_FALSE(repo->IsLive(h1));
  EXPECT_TRUE(repo->Materialize(h1).empty());  // retired: not materializable
  // The payload h1 shared with h2 stays live; its own becomes garbage.
  EXPECT_EQ(repo->Materialize(h2), FullImage(11, 20)) << repo->error();
  EXPECT_EQ(repo->live_payload_bytes(), 2 * kStoredPayload);
  EXPECT_EQ(repo->garbage_payload_bytes(), kStoredPayload);

  // Double retire fails; retiring the last live image orphans everything.
  EXPECT_FALSE(repo->RetireImage(h1));
  ASSERT_TRUE(repo->RetireImage(h2));
  EXPECT_EQ(repo->garbage_payload_bytes(), 3 * kStoredPayload);
  EXPECT_EQ(repo->live_payload_bytes(), 0u);
}

TEST_F(RepoTest, HistoryAppendsOnlyChangedPayloads) {
  // Puts `history`, a sequence of self-contained images that repeat their
  // unchanged chunks: each put must append exactly `appended[i]` payload
  // bytes, the payloads no earlier image held. Then retires all but the
  // head, collects garbage and reopens: the head still materializes to its
  // literal image. The first `checked` images are also materialized before
  // the retirements.
  auto check = [this](const std::vector<std::vector<uint8_t>>& history,
                      const std::vector<uint64_t>& appended, size_t checked) {
    fs::remove_all(dir_);
    auto repo = OpenRepo();
    ASSERT_NE(repo, nullptr);
    std::vector<uint64_t> handles;
    for (size_t i = 0; i < history.size(); ++i) {
      const uint64_t before = repo->physical_put_bytes();
      handles.push_back(repo->PutImage(history[i]));
      ASSERT_NE(handles.back(), 0u) << repo->error();
      EXPECT_EQ(repo->physical_put_bytes() - before, appended[i])
          << "image " << i;
    }
    for (size_t i = 0; i < checked; ++i) {
      EXPECT_EQ(repo->Materialize(handles[i]), history[i]) << "image " << i;
    }

    const uint64_t head = handles.back();
    for (size_t i = 0; i + 1 < handles.size(); ++i) {
      ASSERT_TRUE(repo->RetireImage(handles[i]));
    }
    ASSERT_TRUE(repo->CollectGarbage().ok) << repo->error();
    EXPECT_EQ(repo->garbage_payload_bytes(), 0u);
    EXPECT_EQ(repo->Materialize(head), history.back());
    repo.reset();
    auto reopened = OpenRepo();
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->live_image_count(), 1u);
    EXPECT_EQ(reopened->Materialize(head), history.back());
  };

  // Two-chunk images whose chunk "b" never changes: after the first put,
  // each appends only its new "a".
  check({FullImage(10, 20), FullImage(11, 20), FullImage(12, 20)},
        {16, 8, 8}, 3);

  // 25 images of 16 chunks of 256 KiB. Image d > 0 rewrites a 4-chunk
  // window of its predecessor; every third one reverts its window to the
  // first image's content, which the repository already holds. Only the
  // head is materialized: a 4 MiB materialization costs tens of
  // milliseconds.
  constexpr size_t kChunks = 16;
  constexpr size_t kChunkBytes = 256 * 1024;
  constexpr size_t kWindow = 4;
  std::vector<uint64_t> seeds(kChunks);  // each chunk's current payload seed
  std::set<uint64_t> stored;              // seeds already put
  uint64_t next_seed = kChunks + 1;
  std::vector<std::vector<uint8_t>> history;
  std::vector<uint64_t> appended;
  for (size_t d = 0; d <= 24; ++d) {
    const size_t first = (d * kWindow) % kChunks;
    uint64_t fresh = 0;
    CheckpointImageBuilder image;
    for (size_t c = 0; c < kChunks; ++c) {
      if (d == 0 || (c >= first && c < first + kWindow)) {
        seeds[c] = d % 3 == 0 ? c + 1 : next_seed++;
        fresh += stored.insert(seeds[c]).second ? kChunkBytes : 0;
      }
      image.AddChunk("blk" + std::to_string(c),
                     SeededPayload(seeds[c], kChunkBytes));
    }
    history.push_back(image.Serialize());
    appended.push_back(fresh);
  }
  check(history, appended, 0);
}

TEST_F(RepoTest, GcReclaimsUnreferencedPayloadsAndSurvivesReopen) {
  uint64_t h2 = 0, h3 = 0;
  {
    auto repo = OpenRepo();
    const uint64_t h1 = repo->PutImage(FullImage(10, 20));
    h2 = repo->PutImage(FullImage(11, 20));
    h3 = repo->PutImage(FullImage(12, 21));
    ASSERT_NE(h3, 0u) << repo->error();
    // h1's unshared payload becomes garbage.
    ASSERT_TRUE(repo->RetireImage(h1));
    ASSERT_GT(repo->garbage_payload_bytes(), 0u);

    const auto gc = repo->CollectGarbage();
    ASSERT_TRUE(gc.ok) << repo->error();
    EXPECT_GT(gc.reclaimed_bytes, 0u);
    EXPECT_EQ(repo->garbage_payload_bytes(), 0u);
    EXPECT_FALSE(repo->Has(h1));  // dropped entirely
    EXPECT_EQ(repo->Materialize(h2), FullImage(11, 20));

    // The new journal is the handle watermark, then every live record in
    // one batch record.
    std::vector<JournalRecord> records;
    uint64_t valid_prefix = 0;
    std::string error;
    ASSERT_TRUE(
        ReadJournal(dir_ + "/journal.2", &records, &valid_prefix, &error))
        << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].type, kJournalNextHandle);
    EXPECT_EQ(records[1].type, kJournalBatchPut);
  }
  // The GC'd epoch is what a fresh process opens.
  auto repo = OpenRepo();
  ASSERT_NE(repo, nullptr);
  EXPECT_EQ(repo->LiveHandles(), (std::vector<uint64_t>{h2, h3}));
  EXPECT_EQ(repo->Materialize(h2), FullImage(11, 20));
  EXPECT_EQ(repo->Materialize(h3), FullImage(12, 21));
  // Handles are never reused, even though the GC dropped records.
  const uint64_t h4 = repo->PutImage(FullImage(1, 2));
  EXPECT_GT(h4, h3);
}

// --- Recovery ------------------------------------------------------------------

TEST_F(RepoTest, ReopenContinuesWhereTheLastProcessStopped) {
  uint64_t h1 = 0, h2 = 0;
  {
    auto repo = OpenRepo();
    h1 = repo->PutImage(FullImage(10, 20));
    h2 = repo->PutImage(FullImage(11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
  }
  auto repo = OpenRepo();
  ASSERT_NE(repo, nullptr);
  // Recovery verifies each stored payload once, although h2 shares "b".
  EXPECT_EQ(repo->bytes_read(), repo->segment_bytes() - kSegmentHeaderBytes);
  EXPECT_EQ(repo->LiveHandles(), (std::vector<uint64_t>{h1, h2}));
  EXPECT_EQ(repo->Materialize(h1), FullImage(10, 20));
  EXPECT_EQ(repo->Materialize(h2), FullImage(11, 20));
  // Dedup extends across the restart: only the new "a" is appended.
  const uint64_t h3 = repo->PutImage(FullImage(12, 20));
  ASSERT_NE(h3, 0u) << repo->error();
  EXPECT_EQ(repo->physical_put_bytes(), sizeof(uint64_t));
}

TEST_F(RepoTest, TornJournalTailIsDiscarded) {
  uint64_t h1 = 0;
  {
    auto repo = OpenRepo();
    h1 = repo->PutImage(FullImage(10, 20));
    ASSERT_NE(h1, 0u);
  }
  // A crash mid-append leaves a torn record at the tail.
  const std::string journal = dir_ + "/journal.1";
  std::FILE* f = std::fopen(journal.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const uint8_t garbage[] = {0x54, 0x4A, 0x52, 0x43, 0x01, 0xFF, 0xFF};
  std::fwrite(garbage, 1, sizeof garbage, f);
  std::fclose(f);

  auto repo = OpenRepo();
  ASSERT_NE(repo, nullptr);
  EXPECT_TRUE(repo->IsLive(h1));
  EXPECT_FALSE(repo->Materialize(h1).empty());
  // The tail was truncated: appending works and survives another reopen.
  const uint64_t h2 = repo->PutImage(FullImage(30, 40));
  ASSERT_NE(h2, 0u);
  repo.reset();
  repo = OpenRepo();
  EXPECT_EQ(repo->live_image_count(), 2u);
}

TEST_F(RepoTest, FlippedSegmentByteIsRejectedAtOpen) {
  {
    auto repo = OpenRepo();
    ASSERT_NE(repo->PutImage(FullImage(10, 20)), 0u);
  }
  const std::string segment = dir_ + "/segment.1";
  const uint64_t size = fs::file_size(segment);
  std::FILE* f = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(size - 3), SEEK_SET);  // inside a payload
  int c = std::fgetc(f);
  std::fseek(f, static_cast<long>(size - 3), SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  std::string error;
  auto repo = CheckpointRepo::Open(dir_, RepoOptions{}, &error);
  EXPECT_EQ(repo, nullptr);
  EXPECT_NE(error.find("verification"), std::string::npos) << error;
}

// Truncates a copy of the repository's `file` to every possible length and
// opens it. Every open must either fail cleanly or yield a repository whose
// surviving live images all materialize — and must never crash.
void TruncationSweep(const std::string& dir, const std::string& file,
                     bool expect_some_open) {
  const std::string scratch = dir + "_truncated";
  const uint64_t full_size = fs::file_size(fs::path(dir) / file);
  size_t opened = 0;
  for (uint64_t len = 0; len < full_size; ++len) {
    fs::remove_all(scratch);
    fs::copy(dir, scratch);
    fs::resize_file(fs::path(scratch) / file, len);
    std::string error;
    auto repo = CheckpointRepo::Open(scratch, RepoOptions{}, &error);
    if (repo == nullptr) {
      EXPECT_FALSE(error.empty()) << file << " truncated to " << len;
      continue;
    }
    ++opened;
    for (const uint64_t handle : repo->LiveHandles()) {
      EXPECT_FALSE(repo->Materialize(handle).empty())
          << file << " truncated to " << len << ", handle " << handle;
    }
  }
  fs::remove_all(scratch);
  if (expect_some_open) {
    // Some prefixes must still open (at minimum, the untorn early ones).
    EXPECT_GT(opened, 0u) << file;
  }
}

class RepoDurabilityTest : public RepoTest {
 protected:
  // A small repository exercising every record type: three puts, two of
  // them sharing a payload, and a retire. Closed so all bytes are on disk.
  void BuildFixture() {
    auto repo = OpenRepo();
    ASSERT_NE(repo->PutImage(FullImage(10, 20)), 0u) << repo->error();
    const uint64_t h2 = repo->PutImage(FullImage(11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
    ASSERT_NE(repo->PutImage(FullImage(30, 40)), 0u);
    ASSERT_TRUE(repo->RetireImage(3));
  }
};

TEST_F(RepoDurabilityTest, SurvivesJournalTruncationAtEveryByte) {
  BuildFixture();
  // A torn journal is a crash artifact: the valid prefix must keep opening.
  TruncationSweep(dir_, "journal.1", /*expect_some_open=*/true);
}

TEST_F(RepoDurabilityTest, SurvivesSegmentTruncationAtEveryByte) {
  BuildFixture();
  // Every segment payload here is journal-referenced, so any truncation is
  // corruption the open must reject — cleanly, never by crashing.
  TruncationSweep(dir_, "segment.1", /*expect_some_open=*/false);
}

std::vector<uint8_t> FileBytes(const fs::path& p) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(p, ec);
  std::vector<uint8_t> bytes(ec ? 0 : size);
  std::ifstream in(p, std::ios::binary);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void WriteFileBytes(const fs::path& p, const std::vector<uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- Seeded mutation fuzzing of the repository files ----------------------------
//
// Each mutant is a copy of a small repository holding every record type a
// live repository journals, with its journal or segment changed. A raw
// mutant (bit flips, a truncation, or 8 bytes overwritten with a value near
// a boundary) must be refused with an error, or open with every live handle
// materializing to exactly the bytes that handle had in the intact
// repository. A re-framed mutant changes one journal record's payload and
// then gives the record a valid CRC, so corrupt content reaches the record
// decoder and the replay: the open must refuse, or leave a usable repository
// in which every Materialize succeeds or reports an error and a put and a GC
// run. Records of the retired types 1 and 3, each a valid put record
// appended with a valid CRC, must be refused outright. The sanitize-preset
// run of this test is the no-UB check of the repository's decoders.

// Byte range of one journal record's payload; its CRC32 follows it.
struct JournalPayload {
  size_t offset = 0;
  size_t size = 0;
};

// Splits a journal file into record payloads, following the framing in
// src/repo/repo_format.h: magic u32 | type u8 | length u64 | payload | CRC.
std::vector<JournalPayload> JournalPayloads(
    const std::vector<uint8_t>& journal) {
  constexpr size_t kLengthAt = 4 + 1;
  std::vector<JournalPayload> payloads;
  size_t pos = kJournalHeaderBytes;
  while (pos + kJournalRecordOverhead <= journal.size()) {
    uint64_t len = 0;
    std::memcpy(&len, journal.data() + pos + kLengthAt, sizeof len);
    payloads.push_back({pos + kLengthAt + sizeof len, len});
    pos += kJournalRecordOverhead + len;
  }
  EXPECT_EQ(pos, journal.size());
  return payloads;
}

// Appends one journal record framed as in src/repo/repo_format.h, with a
// valid CRC.
void AppendJournalRecord(std::vector<uint8_t>* journal, uint8_t type,
                         const std::vector<uint8_t>& payload) {
  ArchiveWriter w;
  w.Write<uint32_t>(kJournalRecordMagic);
  w.Write<uint8_t>(type);
  w.Write<uint64_t>(payload.size());
  w.WriteBytes(payload.data(), payload.size());
  w.Write<uint32_t>(Crc32(payload));
  const std::vector<uint8_t> record = w.Take();
  journal->insert(journal->end(), record.begin(), record.end());
}

class RepoMutationTest : public RepoTest {
 protected:
  // Two puts sharing a payload, a two-image batch, a retire and a last put:
  // 5 journal records. Records the bytes each handle materialized to while
  // it was live.
  void BuildSeed() {
    auto repo = OpenRepo();
    const uint64_t h1 = repo->PutImage(FullImage(10, 20));
    ASSERT_NE(h1, 0u) << repo->error();
    ASSERT_NE(repo->PutImage(FullImage(11, 20)), 0u) << repo->error();
    ASSERT_TRUE(
        repo->CommitBatch(Batch({FullImage(30, 40), FullImage(12, 20)})).ok)
        << repo->error();
    for (const uint64_t handle : repo->LiveHandles()) {
      intact_[handle] = repo->Materialize(handle);
    }
    ASSERT_TRUE(repo->RetireImage(h1)) << repo->error();
    const uint64_t h5 = repo->PutImage(FullImage(50, 60));
    ASSERT_NE(h5, 0u) << repo->error();
    intact_[h5] = repo->Materialize(h5);
    ASSERT_EQ(intact_.size(), 5u);
  }

  std::map<uint64_t, std::vector<uint8_t>> intact_;
};

TEST_F(RepoMutationTest, EveryMutantIsRefusedOrOpensConsistent) {
  ASSERT_NO_FATAL_FAILURE(BuildSeed());
  const fs::path seed(dir_);
  const std::vector<uint8_t> current = FileBytes(seed / "CURRENT");
  const std::vector<uint8_t> journal = FileBytes(seed / "journal.1");
  const std::vector<uint8_t> segment = FileBytes(seed / "segment.1");
  const std::vector<JournalPayload> records = JournalPayloads(journal);
  ASSERT_EQ(records.size(), 5u);

  const fs::path mutant_dir = dir_ + "_mutant";
  const auto open_mutant = [&](const std::vector<uint8_t>& mutant_journal,
                               const std::vector<uint8_t>& mutant_segment,
                               std::string* error) {
    fs::remove_all(mutant_dir);
    fs::create_directories(mutant_dir);
    WriteFileBytes(mutant_dir / "CURRENT", current);
    WriteFileBytes(mutant_dir / "journal.1", mutant_journal);
    WriteFileBytes(mutant_dir / "segment.1", mutant_segment);
    return CheckpointRepo::Open(mutant_dir.string(), RepoOptions{}, error);
  };

  // The retired record types 1 (a single put) and 3, each carrying a valid
  // put record: the first put (a batch of one) holds handle 1's put record
  // after its count and length, renamed here to the unused handle 6.
  for (const uint8_t type : {1, 3}) {
    std::vector<uint8_t> put(
        journal.begin() + records[0].offset + 2 * sizeof(uint64_t),
        journal.begin() + records[0].offset + records[0].size);
    const uint64_t unused_handle = 6;
    std::memcpy(put.data(), &unused_handle, sizeof unused_handle);
    std::vector<uint8_t> mutant_journal = journal;
    AppendJournalRecord(&mutant_journal, type, put);
    std::string error;
    EXPECT_EQ(open_mutant(mutant_journal, segment, &error), nullptr);
    EXPECT_NE(error.find("unknown journal record type " + std::to_string(type)),
              std::string::npos)
        << error;
  }

  const uint64_t kValues[] = {0, 1, 8, 0x7FFFFFFFull, 0x4000000000000000ull,
                              ~0ull};

  Rng rng(0x2E90);
  const auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng.NextUint64() % n);
  };
  const auto flip_bits = [&below](uint8_t* p, size_t n) {
    for (size_t k = 0, flips = 1 + below(3); k < flips; ++k) {
      p[below(n)] ^= static_cast<uint8_t>(1u << below(8));
    }
  };
  // Overwrites 8 bytes of p[0, n), n >= 8, with a boundary value or one of
  // its neighbours.
  const auto overwrite = [&below, &kValues](uint8_t* p, size_t n) {
    const uint64_t value = kValues[below(std::size(kValues))] +
                           static_cast<uint64_t>(below(3)) - 1;
    std::memcpy(p + below(n - 7), &value, sizeof value);
  };

  size_t raw_opened = 0, raw_refused = 0;
  size_t reframed_opened = 0, reframed_refused = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> mutant_journal = journal;
    std::vector<uint8_t> mutant_segment = segment;
    const bool reframed = round % 2 == 1;
    if (!reframed) {
      std::vector<uint8_t>& file =
          below(2) == 0 ? mutant_journal : mutant_segment;
      switch (below(3)) {
        case 0:
          flip_bits(file.data(), file.size());
          break;
        case 1:
          file.resize(below(file.size()));
          break;
        case 2:
          overwrite(file.data(), file.size());
          break;
      }
    } else {
      const JournalPayload& record = records[below(records.size())];
      uint8_t* payload = mutant_journal.data() + record.offset;
      if (below(2) == 0) {
        flip_bits(payload, record.size);
      } else {
        overwrite(payload, record.size);
      }
      const uint32_t crc = Crc32(payload, record.size);
      std::memcpy(payload + record.size, &crc, sizeof crc);
    }
    std::string error;
    auto repo = open_mutant(mutant_journal, mutant_segment, &error);
    if (repo == nullptr) {
      EXPECT_FALSE(error.empty()) << "mutant " << round;
      ++(reframed ? reframed_refused : raw_refused);
      continue;
    }
    ++(reframed ? reframed_opened : raw_opened);
    for (const uint64_t handle : repo->LiveHandles()) {
      const std::vector<uint8_t> image = repo->Materialize(handle);
      if (reframed) {
        EXPECT_TRUE(!image.empty() || !repo->error().empty())
            << "mutant " << round << ", handle " << handle;
        continue;
      }
      const auto it = intact_.find(handle);
      EXPECT_TRUE(it != intact_.end() && image == it->second)
          << "mutant " << round << " opened with handle " << handle
          << " holding bytes it never had";
    }
    if (reframed) {
      EXPECT_TRUE(repo->PutImage(FullImage(70, 80)) != 0 ||
                  !repo->error().empty())
          << "mutant " << round;
      EXPECT_TRUE(repo->CollectGarbage().ok || !repo->error().empty())
          << "mutant " << round;
    }
  }
  fs::remove_all(mutant_dir);
  // Every outcome occurs: the mutator reaches past the rejection paths.
  EXPECT_GT(raw_opened, 0u);
  EXPECT_GT(raw_refused, 0u);
  EXPECT_GT(reframed_opened, 0u);
  EXPECT_GT(reframed_refused, 0u);
}

// --- End-to-end: a persisted TimeTravelTree across process restarts -----------

TimeTravelTree::Factory TreeFactory() {
  return [] {
    BasicExperimentRun::Params params;
    params.seed = 31;
    return std::make_unique<BasicExperimentRun>(params);
  };
}

TEST_F(RepoTest, TreePersistsAndReopensDigestIdentical) {
  std::vector<int> ids;
  uint64_t manifest = 0;
  {
    TimeTravelTree tree(TreeFactory());
    ids = tree.RecordOriginalRun(6 * kSecond, 2 * kSecond);
    ASSERT_GE(ids.size(), 3u);
    auto repo = OpenRepo();
    manifest = tree.PersistTo(repo.get());
    ASSERT_NE(manifest, 0u) << repo->error();
  }
  // "Fresh process": nothing survives but the directory and the manifest
  // handle. A rebuilt tree must verify every checkpoint — a fresh Simulator
  // restored from repository bytes reproduces the recorded digests.
  uint64_t reclaimed = 0;
  {
    auto repo = OpenRepo();
    TimeTravelTree tree(TreeFactory());
    ASSERT_TRUE(tree.ReopenFrom(repo.get(), manifest));
    ASSERT_EQ(tree.tree().size(), ids.size());
    for (int id : ids) {
      EXPECT_TRUE(tree.VerifyImageRestore(id)) << "checkpoint " << id;
    }
    // Replay still branches off the reopened history.
    const std::vector<int> branch =
        tree.ReplayFrom(ids[0], 6 * kSecond, 2 * kSecond, /*perturb_seed=*/0,
                        RestoreMode::kImage);
    EXPECT_FALSE(branch.empty());

    // A GC pass must not disturb the persisted tree.
    const auto gc = repo->CollectGarbage();
    ASSERT_TRUE(gc.ok) << repo->error();
    reclaimed = gc.reclaimed_bytes;
  }
  {
    auto repo = OpenRepo();
    TimeTravelTree tree(TreeFactory());
    ASSERT_TRUE(tree.ReopenFrom(repo.get(), manifest));
    for (int id : ids) {
      EXPECT_TRUE(tree.VerifyImageRestore(id))
          << "checkpoint " << id << " after GC reclaiming " << reclaimed;
    }
  }
}

// A tree manifest as TimeTravelTree::PersistTo lays it out, with `count`
// written independently of the node records that follow, and no images.
struct ManifestNode {
  int32_t id;
  int32_t parent;
  int32_t branch;
};

std::vector<uint8_t> Manifest(uint64_t count,
                              const std::vector<ManifestNode>& nodes,
                              int32_t branches) {
  ArchiveWriter w;
  w.Write<uint64_t>(count);
  for (const ManifestNode& node : nodes) {
    w.Write<int32_t>(node.id);
    w.Write<int32_t>(node.parent);
    w.Write<int32_t>(node.branch);
    w.Write<SimTime>(0);   // time
    w.Write<uint64_t>(0);  // image bytes
    w.Write<uint64_t>(0);  // digest
    w.Write<uint64_t>(0);  // repo handle: no image
  }
  w.Write<int32_t>(branches);
  CheckpointImageBuilder builder;
  builder.AddChunk("timetravel.tree", w.Take());
  return builder.Serialize();
}

TEST_F(RepoTest, ReopenRejectsCraftedManifests) {
  auto repo = OpenRepo();
  const auto reopens = [&](const std::vector<uint8_t>& manifest) {
    const uint64_t handle = repo->PutImage(manifest);
    EXPECT_NE(handle, 0u) << repo->error();
    TimeTravelTree tree(TreeFactory());
    return tree.ReopenFrom(repo.get(), handle);
  };
  // Control: the crafted layout is the real one.
  EXPECT_TRUE(reopens(Manifest(2, {{0, -1, 0}, {1, 0, 0}}, 1)));

  // A count far beyond the bytes that follow (reserve would throw).
  EXPECT_FALSE(reopens(Manifest(uint64_t{1} << 62, {}, 1)));
  // A node id that is not its index.
  EXPECT_FALSE(reopens(Manifest(1, {{5, -1, 0}}, 1)));
  // Parents outside [-1, id): past the end (RebuildTo reads out of bounds),
  // the node itself (RebuildTo never reaches the root), below -1.
  EXPECT_FALSE(reopens(Manifest(2, {{0, -1, 0}, {1, 7, 0}}, 1)));
  EXPECT_FALSE(reopens(Manifest(2, {{0, -1, 0}, {1, 1, 0}}, 1)));
  EXPECT_FALSE(reopens(Manifest(1, {{0, -2, 0}}, 1)));
  // Branches outside [0, branch count).
  EXPECT_FALSE(reopens(Manifest(1, {{0, -1, 1}}, 1)));
  EXPECT_FALSE(reopens(Manifest(1, {{0, -1, -1}}, 1)));
  EXPECT_FALSE(reopens(Manifest(0, {}, -1)));
}

// --- Batched group commit -------------------------------------------------------

TEST_F(RepoTest, BatchCommitsEpochAllAtOnceAndMatchesOracle) {
  auto repo = OpenRepo();
  const uint64_t committed = repo->PutImage(FullImage(10, 20));
  ASSERT_NE(committed, 0u) << repo->error();

  // One epoch: an image sharing nothing and one sharing "b" with the
  // committed image. Handles follow list order.
  const auto result =
      repo->CommitBatch(Batch({FullImage(30, 40), FullImage(31, 20)}));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.images, 2u);
  ASSERT_EQ(result.handles.size(), 2u);
  const uint64_t h_new = result.handles[0];
  const uint64_t h_shared = result.handles[1];
  ASSERT_NE(h_new, 0u);
  ASSERT_NE(h_shared, 0u);
  EXPECT_EQ(result.logical_payload_bytes, 4 * sizeof(uint64_t));
  EXPECT_EQ(result.appended_payload_bytes, 3 * sizeof(uint64_t));

  EXPECT_EQ(repo->live_image_count(), 3u);
  EXPECT_EQ(repo->Materialize(h_new), FullImage(30, 40));
  EXPECT_EQ(repo->Materialize(h_shared), FullImage(31, 20));

  // The epoch survives a restart exactly as committed.
  repo.reset();
  repo = OpenRepo();
  EXPECT_EQ(repo->live_image_count(), 3u);
  EXPECT_EQ(repo->Materialize(h_shared), FullImage(31, 20));

  // An empty batch is a no-op commit.
  const auto empty = repo->CommitBatch({});
  EXPECT_TRUE(empty.ok) << empty.error;
  EXPECT_EQ(empty.images, 0u);
}

TEST_F(RepoTest, BatchRejectionIsAllOrNothing) {
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(10, 20));
  ASSERT_NE(h1, 0u) << repo->error();

  // Two good images around a corrupt one (a flipped payload bit): the whole
  // epoch must be refused, before the good image ahead of it appends.
  std::vector<uint8_t> corrupt = FullImage(11, 20);
  corrupt.back() ^= 0x10;
  const uint64_t segment_before = repo->segment_bytes();
  const auto result = repo->CommitBatch(
      Batch({FullImage(30, 40), std::move(corrupt), FullImage(50, 60)}));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("CRC mismatch"), std::string::npos)
      << result.error;
  EXPECT_EQ(result.handles, (std::vector<uint64_t>{0, 0, 0}));
  EXPECT_EQ(repo->live_image_count(), 1u);
  EXPECT_EQ(repo->segment_bytes(), segment_before);

  // The repository is still fully usable after rejections.
  EXPECT_NE(repo->PutImage(FullImage(70, 80)), 0u) << repo->error();
  EXPECT_EQ(repo->live_image_count(), 2u);
}

TEST_F(RepoTest, IncrementalRetentionMatchesRebuild) {
  // A commit retains only its new images; Open recomputes retention from the
  // whole history. After every step of a mixed history, the live repository
  // must account exactly what a fresh Open of the same directory does.
  auto repo = OpenRepo();
  auto expect_matches_rebuild = [&](const std::string& step) {
    std::string error;
    auto rebuilt = CheckpointRepo::Open(dir_, RepoOptions{}, &error);
    ASSERT_NE(rebuilt, nullptr) << step << ": " << error;
    EXPECT_EQ(repo->live_payload_bytes(), rebuilt->live_payload_bytes())
        << step;
    EXPECT_EQ(repo->garbage_payload_bytes(), rebuilt->garbage_payload_bytes())
        << step;
    EXPECT_EQ(repo->LiveHandles(), rebuilt->LiveHandles()) << step;
  };
  auto commit = [&](const CheckpointRepo::Images& images) {
    const auto result = repo->CommitBatch(images);
    EXPECT_TRUE(result.ok) << result.error;
    return result.handles;
  };

  const uint64_t h1 = repo->PutImage(FullImage(10, 20));
  ASSERT_NE(h1, 0u) << repo->error();
  expect_matches_rebuild("full image");
  const uint64_t h2 = repo->PutImage(FullImage(30, 40));
  ASSERT_NE(h2, 0u) << repo->error();
  expect_matches_rebuild("second full image");

  // One epoch: an image sharing "b" with h2, one sharing "b" with h1, and
  // one whose payloads all dedup against h1.
  const std::vector<uint64_t> epoch1 = commit(
      Batch({FullImage(31, 40), FullImage(11, 20), FullImage(10, 20)}));
  ASSERT_EQ(epoch1.size(), 3u);
  const uint64_t h3 = epoch1[0];
  const uint64_t h4 = epoch1[1];
  const uint64_t h5 = epoch1[2];
  expect_matches_rebuild("mixed epoch");

  // Retiring an image whose payloads are all still shared frees nothing.
  ASSERT_TRUE(repo->RetireImage(h1)) << repo->error();
  expect_matches_rebuild("retire a dedup twin");
  EXPECT_EQ(repo->garbage_payload_bytes(), 0u);
  ASSERT_TRUE(repo->RetireImage(h2)) << repo->error();
  ASSERT_TRUE(repo->RetireImage(h5)) << repo->error();
  expect_matches_rebuild("retire a sharer and the last holder of a payload");
  EXPECT_GT(repo->garbage_payload_bytes(), 0u);

  ASSERT_TRUE(repo->CollectGarbage().ok) << repo->error();
  EXPECT_FALSE(repo->Has(h1));
  EXPECT_FALSE(repo->Has(h2));
  expect_matches_rebuild("gc");

  // Commits after GC: an image re-offering a payload the GC dropped and one
  // sharing h3's "b", then a single put sharing it too.
  const std::vector<uint64_t> epoch2 =
      commit(Batch({FullImage(30, 40), FullImage(32, 40)}));
  ASSERT_EQ(epoch2.size(), 2u);
  expect_matches_rebuild("epoch after gc");
  const uint64_t h10 = repo->PutImage(FullImage(33, 40));
  ASSERT_NE(h10, 0u) << repo->error();
  expect_matches_rebuild("put after an epoch");

  ASSERT_TRUE(repo->RetireImage(h3)) << repo->error();
  ASSERT_TRUE(repo->RetireImage(epoch2[1])) << repo->error();
  ASSERT_TRUE(repo->RetireImage(h4)) << repo->error();
  ASSERT_NE(repo->PutImage(FullImage(34, 40)), 0u) << repo->error();
  expect_matches_rebuild("put after retires");
  EXPECT_GT(repo->live_payload_bytes(), 0u);
  EXPECT_GT(repo->garbage_payload_bytes(), 0u);
}

TEST_F(RepoTest, BatchAppendsThePerPutSegment) {
  // One epoch of images through a per-put repository — the oracle, one
  // commit per image — and through one batch. The batch materializes like
  // the oracle, its segment is byte-identical to the oracle's, and a fresh
  // process reading it materializes like the oracle too.
  auto check = [this](const std::vector<std::vector<uint8_t>>& images) {
    std::string error;
    const std::string oracle_dir = dir_ + "_per_put";
    fs::remove_all(oracle_dir);
    auto oracle = CheckpointRepo::Open(oracle_dir, RepoOptions{}, &error);
    ASSERT_NE(oracle, nullptr) << error;
    for (const std::vector<uint8_t>& image : images) {
      ASSERT_NE(oracle->PutImage(image), 0u) << oracle->error();
    }
    const uint64_t oracle_fold = FoldMaterializations(oracle.get());
    // The oracle materializes exactly the bytes put, in put order.
    Fnv1aDigest put;
    for (const std::vector<uint8_t>& image : images) {
      put.MixBytes(image.data(), image.size());
    }
    EXPECT_EQ(oracle_fold, put.value());
    oracle.reset();
    const std::vector<uint8_t> oracle_segment =
        FileBytes(fs::path(oracle_dir) / "segment.1");
    fs::remove_all(oracle_dir);

    const std::string dir = dir_ + "_batch";
    fs::remove_all(dir);
    auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
    ASSERT_NE(repo, nullptr) << error;
    ASSERT_TRUE(repo->CommitBatch(Batch(images)).ok) << repo->error();
    // Handles follow list order, so the fold in handle order matches.
    EXPECT_EQ(FoldMaterializations(repo.get()), oracle_fold);
    repo.reset();
    // Both paths dedup and append in the same order, so the payloads land
    // at the same offsets: only the journals differ.
    EXPECT_EQ(FileBytes(fs::path(dir) / "segment.1"), oracle_segment);
    auto reopened = CheckpointRepo::Open(dir, RepoOptions{}, &error);
    ASSERT_NE(reopened, nullptr) << error;
    EXPECT_EQ(FoldMaterializations(reopened.get()), oracle_fold);
    reopened.reset();
    fs::remove_all(dir);
  };

  // 16 two-chunk images with cross-image shared payloads, so dedup order
  // matters.
  std::vector<std::vector<uint8_t>> images;
  for (uint64_t i = 0; i < 16; ++i) {
    images.push_back(FullImage(i % 4, i * 7));
  }
  check(images);

  // A 1000-host spill epoch: one image per host of 8 chunks of 4 KiB, the
  // first third of which hold the same content on every host.
  constexpr size_t kChunks = 8;
  images.clear();
  for (uint64_t h = 0; h < 1000; ++h) {
    CheckpointImageBuilder image;
    for (size_t c = 0; c < kChunks; ++c) {
      const uint64_t seed =
          c < kChunks / 3 ? 0xBA5Eull + c : 0xF00Dull + h * 131 + c;
      image.AddChunk("blk" + std::to_string(c), SeededPayload(seed, 4096));
    }
    images.push_back(image.Serialize());
  }
  check(images);
}

TEST_F(RepoTest, FailedCommitLeavesRepositoryOpenableAtPreviousEpoch) {
  uint64_t h1 = 0;
  {
    auto repo = OpenRepo();
    h1 = repo->PutImage(FullImage(10, 20));
    ASSERT_NE(h1, 0u) << repo->error();
  }
  {
    // Reopen, then fill the disk: the segment admits no further byte, so any
    // new payload append fails. The guard disarms on every exit from this
    // block, failed assertions included.
    struct DisarmOnExit {
      ~DisarmOnExit() { RepoIoFaultInjector::DisarmAll(); }
    } disarm;
    auto repo = OpenRepo();
    ASSERT_NE(repo, nullptr);
    RepoIoFaultPlan full_disk;
    full_disk.allow_bytes = 0;
    RepoIoFaultInjector::Arm(RepoIoTarget::kSegment, full_disk);

    const auto result = repo->CommitBatch(Batch({FullImage(30, 40)}));
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("append failed"), std::string::npos)
        << result.error;
    // Nothing published; the error is sticky, so retries keep failing
    // instead of tearing the segment, and reads of committed state still
    // work.
    EXPECT_EQ(repo->live_image_count(), 1u);
    EXPECT_FALSE(repo->CommitBatch(Batch({FullImage(50, 60)})).ok);
    EXPECT_EQ(repo->Materialize(h1), FullImage(10, 20));
  }

  // A fresh process opens the previous epoch, whole and writable.
  auto reopened = OpenRepo();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->live_image_count(), 1u);
  EXPECT_EQ(reopened->Materialize(h1), FullImage(10, 20));
  EXPECT_NE(reopened->PutImage(FullImage(30, 40)), 0u)
      << reopened->error();
}

// Crash injection over a batched epoch: truncates the journal (then the
// segment) at every byte and opens the wreck. Every successful open must
// observe either the state before the epoch or the entire epoch — a batch is
// never half-visible.
class RepoBatchDurabilityTest : public RepoTest {
 protected:
  // One committed image, then one batched epoch of three (two sharing
  // nothing, one sharing "b" with the committed image) — closed so all bytes
  // are on disk.
  void BuildBatchedFixture() {
    auto repo = OpenRepo();
    const uint64_t h1 = repo->PutImage(FullImage(10, 20));
    ASSERT_NE(h1, 0u) << repo->error();
    const auto result = repo->CommitBatch(
        Batch({FullImage(30, 40), FullImage(50, 60), FullImage(11, 20)}));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(repo->live_image_count(), 4u);
  }

  // Truncation sweep asserting all-or-nothing epoch visibility: a surviving
  // open holds 0 or 1 images (pre-epoch prefixes) or all 4 — never a torn 2
  // or 3 — and everything live materializes.
  void AllOrNothingSweep(const std::string& file, bool expect_rollback) {
    const std::string scratch = dir_ + "_truncated";
    const uint64_t full_size = fs::file_size(fs::path(dir_) / file);
    std::set<size_t> seen_counts;
    for (uint64_t len = 0; len < full_size; ++len) {
      fs::remove_all(scratch);
      fs::copy(dir_, scratch);
      fs::resize_file(fs::path(scratch) / file, len);
      std::string error;
      auto repo = CheckpointRepo::Open(scratch, RepoOptions{}, &error);
      if (repo == nullptr) {
        EXPECT_FALSE(error.empty()) << file << " truncated to " << len;
        continue;
      }
      const size_t live = repo->live_image_count();
      EXPECT_TRUE(live <= 1 || live == 4)
          << file << " truncated to " << len << " exposed a torn epoch of "
          << live << " images";
      seen_counts.insert(live);
      for (const uint64_t handle : repo->LiveHandles()) {
        EXPECT_FALSE(repo->Materialize(handle).empty())
            << file << " truncated to " << len << ", handle " << handle;
      }
    }
    fs::remove_all(scratch);
    if (expect_rollback) {
      // The sweep actually exercised the pre-epoch state (tearing the batch
      // record rolled the repository back to image 1 alone).
      EXPECT_TRUE(seen_counts.count(1)) << file;
    }
  }
};

TEST_F(RepoBatchDurabilityTest, JournalTearNeverSplitsAnEpoch) {
  BuildBatchedFixture();
  AllOrNothingSweep("journal.1", /*expect_rollback=*/true);
}

TEST_F(RepoBatchDurabilityTest, SegmentTearNeverSplitsAnEpoch) {
  BuildBatchedFixture();
  // Segment truncations corrupt journal-referenced payloads: opens must
  // reject them cleanly (never crash, never show a partial epoch) — the
  // journal still names the whole epoch, so no rollback state is reachable.
  AllOrNothingSweep("segment.1", /*expect_rollback=*/false);
}

// Crash injection against the two-phase capture pipeline, through the real
// write path: the repository is produced by an async epoch coordinator whose
// background thread serializes staged snapshots and group-commits them while
// the next window runs. Instead of tearing the finished files after the fact,
// RepoIoFaultInjector is armed with a byte budget while the pipeline runs, so
// the tear is produced by SegmentFile/JournalWriter themselves — an admitted
// prefix reaches the file, the crossing write fails, the writers go sticky —
// exactly the state a full disk or a crash mid-append leaves. Every recovery
// must yield whole epochs: the live-handle count is a multiple of the
// partition count, never a torn epoch, and everything visible materializes.
class AsyncSpillDurabilityTest : public RepoTest {
 protected:
  static constexpr uint32_t kPartitions = 4;
  static constexpr size_t kEpochs = 2;

  struct PipelineResult {
    bool opened = false;
    bool all_spills_ok = false;
    size_t epochs_run = 0;
  };

  // Drives the async two-phase pipeline against a repository in `dir`. A
  // small 4-zone fat tree (one LAN per zone) keeps the run tractable while
  // exercising the real data path; the run is deterministic, so every
  // invocation produces the identical byte stream and an armed budget tears
  // the same write each time. `arm` fires between Open and the run, for
  // faults that must spare repository creation.
  PipelineResult RunPipeline(const std::string& dir, const RepoOptions& opts,
                             const std::function<void()>& arm = {}) {
    PipelineResult result;
    std::string error;
    auto repo = CheckpointRepo::Open(dir, opts, &error);
    if (repo == nullptr) {
      // Acceptable only when a fault is armed tightly enough to break
      // creation itself; callers assert `opened` when that can't happen.
      EXPECT_FALSE(error.empty());
      return result;
    }
    result.opened = true;
    if (arm) {
      arm();
    }
    GeneratedTopologyParams params;
    params.hosts = 20;
    params.hosts_per_lan = 5;
    params.lans_per_zone = 1;
    auto topo = GeneratedTopology::Build(params, kPartitions, /*workers=*/2);
    EXPECT_EQ(topo->partition_count(), kPartitions);
    PartitionEpochCoordinator epochs(
        topo->scheduler(), 10 * kMillisecond,
        [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
    epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
      topo->SnapshotPartition(p->id(), out);
    });
    epochs.AttachRepository(repo.get());
    epochs.RunUntil(kEpochs * 10 * kMillisecond);
    result.epochs_run = epochs.history().size();
    result.all_spills_ok = result.epochs_run == kEpochs;
    for (const auto& rec : epochs.history()) {
      EXPECT_TRUE(rec.async);
      result.all_spills_ok = result.all_spills_ok && rec.spill_ok;
    }
    return result;
  }

  // Reopens `dir` after a write-path fault and asserts all-or-nothing epoch
  // visibility; records the live count for the rollback-reached check.
  void ExpectWholeEpochs(const std::string& dir, uint64_t budget) {
    std::string error;
    auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
    if (repo == nullptr) {
      EXPECT_FALSE(error.empty()) << "budget " << budget;
      return;
    }
    const size_t live = repo->live_image_count();
    EXPECT_EQ(live % kPartitions, 0u)
        << "budget " << budget << " exposed a torn epoch of " << live
        << " images";
    EXPECT_LE(live, kEpochs * kPartitions) << "budget " << budget;
    seen_counts_.insert(live);
    for (const uint64_t handle : repo->LiveHandles()) {
      EXPECT_FALSE(repo->Materialize(handle).empty())
          << "budget " << budget << ", handle " << handle;
    }
  }

  // One clean instrumented run measuring the target's total byte stream (the
  // sweep's domain). The default plan never faults; it only counts.
  uint64_t MeasureCleanBytes(RepoIoTarget target) {
    const std::string probe = dir_ + "_probe";
    fs::remove_all(probe);
    RepoIoFaultInjector::Arm(target, RepoIoFaultPlan{});
    const PipelineResult r = RunPipeline(probe, RepoOptions{});
    const uint64_t total = RepoIoFaultInjector::bytes_admitted(target);
    RepoIoFaultInjector::DisarmAll();
    fs::remove_all(probe);
    EXPECT_TRUE(r.opened && r.all_spills_ok);
    EXPECT_EQ(RepoIoFaultInjector::faults_injected(target), 0u);
    return total;
  }

  // Budget sweep: each iteration runs the whole pipeline with the crossing
  // write torn for real. Strided over the body (each run is a full
  // simulation, unlike the byte-cheap truncation sweeps above) but
  // byte-exact over the final record's tail, where the torn group commit
  // lives.
  void WriteFaultSweep(RepoIoTarget target, bool expect_rollback) {
    const uint64_t total = MeasureCleanBytes(target);
    ASSERT_GT(total, 0u);
    std::set<uint64_t> budgets;
    const uint64_t stride = std::max<uint64_t>(1, total / 96);
    for (uint64_t b = 0; b < total; b += stride) {
      budgets.insert(b);
    }
    for (uint64_t b = total > 64 ? total - 64 : 0; b < total; ++b) {
      budgets.insert(b);
    }
    const std::string scratch = dir_ + "_fault";
    for (const uint64_t budget : budgets) {
      fs::remove_all(scratch);
      RepoIoFaultPlan plan;
      plan.allow_bytes = budget;
      RepoIoFaultInjector::Arm(target, plan);
      const PipelineResult r = RunPipeline(scratch, RepoOptions{});
      const uint64_t faults = RepoIoFaultInjector::faults_injected(target);
      RepoIoFaultInjector::DisarmAll();
      // The budget is below the clean stream, so some write must have torn,
      // and a commit containing it must have reported failure.
      EXPECT_GT(faults, 0u) << "budget " << budget;
      EXPECT_FALSE(r.opened && r.all_spills_ok) << "budget " << budget;
      ExpectWholeEpochs(scratch, budget);
    }
    fs::remove_all(scratch);
    if (expect_rollback) {
      // The sweep actually recovered a partial-history state: the first
      // epoch alone, the torn group commit invisible.
      EXPECT_TRUE(seen_counts_.count(kPartitions));
    }
  }

  std::set<size_t> seen_counts_;
};

TEST_F(AsyncSpillDurabilityTest, JournalWriteTearRecoversWholeEpochsOnly) {
  WriteFaultSweep(RepoIoTarget::kJournal, /*expect_rollback=*/true);
}

TEST_F(AsyncSpillDurabilityTest, SegmentWriteTearRecoversWholeEpochsOnly) {
  // A torn segment write aborts the group commit before its journal record
  // exists, so recovery lands on a clean whole-epoch prefix (possibly empty);
  // the journal never names a payload that failed to land.
  WriteFaultSweep(RepoIoTarget::kSegment, /*expect_rollback=*/true);
}

TEST_F(AsyncSpillDurabilityTest, FsyncFailureFailsTheCommitNotTheProcess) {
  // With options.fsync every group commit syncs the journal; a failing fsync
  // must surface as a failed spill (the epoch is not durably committed) while
  // the run itself carries on, and a reopen still sees only whole epochs —
  // the record bytes may or may not have reached the disk, which is exactly
  // the ambiguity a real fsync failure leaves.
  const std::string scratch = dir_ + "_fsync";
  fs::remove_all(scratch);
  RepoOptions opts;
  opts.fsync = true;
  const PipelineResult r = RunPipeline(scratch, opts, [] {
    RepoIoFaultPlan plan;
    plan.fail_fsync = true;
    RepoIoFaultInjector::Arm(RepoIoTarget::kJournal, plan);
  });
  const uint64_t faults =
      RepoIoFaultInjector::faults_injected(RepoIoTarget::kJournal);
  RepoIoFaultInjector::DisarmAll();
  ASSERT_TRUE(r.opened);
  EXPECT_EQ(r.epochs_run, kEpochs);
  EXPECT_GT(faults, 0u);
  EXPECT_FALSE(r.all_spills_ok);
  ExpectWholeEpochs(scratch, /*budget=*/0);
  fs::remove_all(scratch);
}

// --- fsync durability path ------------------------------------------------------

TEST_F(RepoTest, FsyncModeSurvivesFullLifecycleAndReopen) {
  // With options.fsync the repository syncs file contents *and* the parent
  // directory at every install point: fresh creation, journal commits, and
  // the GC epoch's CURRENT switch. This exercises every one of those paths
  // end to end; a failure in any fsync surfaces as an open/commit error.
  RepoOptions opts;
  opts.fsync = true;
  uint64_t h2 = 0;
  {
    std::string error;
    auto repo = CheckpointRepo::Open(dir_, opts, &error);
    ASSERT_NE(repo, nullptr) << error;
    const uint64_t h1 = repo->PutImage(FullImage(10, 20));
    ASSERT_NE(h1, 0u) << repo->error();
    h2 = repo->PutImage(FullImage(11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
    ASSERT_TRUE(repo->RetireImage(h1)) << repo->error();
    const auto gc = repo->CollectGarbage();
    ASSERT_TRUE(gc.ok) << repo->error();
  }
  {
    std::string error;
    auto repo = CheckpointRepo::Open(dir_, opts, &error);
    ASSERT_NE(repo, nullptr) << error;
    EXPECT_TRUE(repo->IsLive(h2));
    EXPECT_EQ(repo->Materialize(h2), FullImage(11, 20)) << repo->error();
  }
}

TEST(FsyncHelpersTest, FsyncDirectoryRejectsMissingPath) {
#ifndef _WIN32
  EXPECT_FALSE(FsyncDirectory("/nonexistent/tcsim/nowhere"));
#endif
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(FsyncDirectory(dir));
}

}  // namespace
}  // namespace tcsim
