// The universal checkpoint-image layer: container framing (magic, version,
// CRC, truncation), forward-compatible chunk lookup, seeded mutation fuzzing
// of the decoder, and per-component save -> mutate -> restore -> save round
// trips that must be bit-identical.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/dummynet/delay_node.h"
#include "src/dummynet/pipe.h"
#include "src/guest/node.h"
#include "src/sim/archive.h"
#include "src/sim/checkpointable.h"
#include "src/sim/image.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/staging.h"
#include "src/storage/branch_store.h"
#include "src/storage/disk.h"
#include "tests/image_reference.h"

namespace tcsim {
namespace {

class DiscardSink : public PacketHandler {
 public:
  void HandlePacket(const Packet&) override {}
};

// A minimal component for container-level tests.
class Counter : public Checkpointable {
 public:
  explicit Counter(std::string id) : id_(std::move(id)) {}
  std::string checkpoint_id() const override { return id_; }
  void SaveState(ArchiveWriter* w) const override { w->Write<uint64_t>(value); }
  void RestoreState(ArchiveReader& r) override { value = r.Read<uint64_t>(); }
  uint64_t value = 0;

 private:
  std::string id_;
};

std::vector<uint8_t> SaveOf(const Checkpointable& c) {
  ArchiveWriter w;
  c.SaveState(&w);
  return w.Take();
}

std::vector<uint8_t> PayloadOf(uint64_t value) {
  ArchiveWriter w;
  w.Write<uint64_t>(value);
  return w.Take();
}

TEST(Crc32Test, MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(ImageContainerTest, RoundTripsChunksThroughSerialization) {
  CheckpointImageBuilder builder;
  Counter a("a"), b("b");
  a.value = 17;
  b.value = 42;
  builder.AddChunk(a.checkpoint_id(), SaveOf(a));
  builder.AddChunk(b.checkpoint_id(), SaveOf(b));
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.format_version(), kImageFormatVersion);
  ASSERT_EQ(view.chunks().size(), 2u);
  // The view reads in place: every id and payload lies inside the caller's
  // buffer, and Find hands out the same chunk.
  const uint8_t* const begin = image.data();
  const uint8_t* const end = image.data() + image.size();
  for (const CheckpointImageView::Chunk& c : view.chunks()) {
    const auto* id = reinterpret_cast<const uint8_t*>(c.id.data());
    EXPECT_TRUE(id >= begin && id + c.id.size() <= end) << c.id;
    EXPECT_TRUE(c.payload.data >= begin &&
                c.payload.data + c.payload.size <= end)
        << c.id;
    EXPECT_EQ(view.Find(c.id), &c);
  }
  EXPECT_EQ(view.Find("absent"), nullptr);

  Counter a2("a"), b2("b");
  EXPECT_TRUE(view.RestoreInto(a2));
  EXPECT_TRUE(view.RestoreInto(b2));
  EXPECT_EQ(a2.value, 17u);
  EXPECT_EQ(b2.value, 42u);

  // The program's one image writer, SerializeStagedImage, frames a staged
  // capture as the tests' reference writer frames the same chunks, and so
  // does the builder, which stages what it is handed: here an empty id, an
  // empty payload and a 28-byte id.
  const ReferenceChunks chunks = {
      {"", PayloadOf(17)},
      {"empty-payload", {}},
      {"net.wire.lan.123.4.uplink.id", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
  };
  StagedCapture staged;
  CheckpointImageBuilder staged_by_builder;
  for (const auto& [id, payload] : chunks) {
    StagedEntry entry;
    entry.id = id;
    entry.offset = staged.buffer.size();
    entry.size = payload.size();
    staged.buffer.insert(staged.buffer.end(), payload.begin(), payload.end());
    staged.entries.push_back(entry);
    staged_by_builder.AddChunk(id, payload);
  }
  const std::vector<uint8_t> reference = FrameReferenceImage(chunks);
  EXPECT_EQ(SerializeStagedImage(staged), reference);
  EXPECT_EQ(staged_by_builder.Serialize(), reference);

  // Two images spelled out byte by byte pin the layout itself: a capture
  // with no entries is the "TCKP" magic, version 1 and a zero count, and a
  // one-chunk image adds the id "a" and the payload "123456789" under its
  // known CRC32.
  const std::vector<uint8_t> empty = {0x54, 0x43, 0x4B, 0x50, 1, 0, 0, 0,
                                      0,    0,    0,    0,    0, 0, 0, 0};
  EXPECT_EQ(SerializeStagedImage(StagedCapture{}), empty);
  EXPECT_EQ(CheckpointImageBuilder().Serialize(), empty);
  EXPECT_EQ(FrameReferenceImage({}), empty);
  const std::vector<uint8_t> digits = {'1', '2', '3', '4', '5',
                                       '6', '7', '8', '9'};
  std::vector<uint8_t> one = {
      0x54, 0x43, 0x4B, 0x50, 1, 0, 0, 0,  // magic, version
      1,    0,    0,    0,    0, 0, 0, 0,  // chunk count
      1,    0,    0,    0,    0, 0, 0, 0,  // id length
      'a',                                 // id
      9,    0,    0,    0,    0, 0, 0, 0,  // payload size
      0x26, 0x39, 0xF4, 0xCB,              // payload CRC32
  };
  one.insert(one.end(), digits.begin(), digits.end());
  StagedCapture one_staged;
  one_staged.entries.push_back(StagedEntry{"a", 0, digits.size()});
  one_staged.buffer = digits;
  EXPECT_EQ(SerializeStagedImage(one_staged), one);
  CheckpointImageBuilder one_chunk;
  one_chunk.AddChunk("a", digits);
  EXPECT_EQ(one_chunk.Serialize(), one);
  EXPECT_EQ(FrameReferenceImage({{"a", digits}}), one);
}

TEST(ImageContainerTest, RejectsBadMagic) {
  CheckpointImageBuilder builder;
  Counter a("a");
  builder.AddChunk(a.checkpoint_id(), SaveOf(a));
  std::vector<uint8_t> image = builder.Serialize();
  image[0] ^= 0xFF;
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_FALSE(view.error().empty());
}

TEST(ImageContainerTest, RejectsUnsupportedFormatVersion) {
  CheckpointImageBuilder builder;
  Counter a("a");
  builder.AddChunk(a.checkpoint_id(), SaveOf(a));
  std::vector<uint8_t> image = builder.Serialize();
  // The version field follows the u32 magic. Patch in a future version.
  const uint32_t future = 3;
  std::memcpy(image.data() + sizeof(uint32_t), &future, sizeof(future));
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
}

TEST(ImageContainerTest, RejectsEveryTruncationPoint) {
  CheckpointImageBuilder builder;
  Counter a("component-with-a-name"), b("b");
  a.value = 7;
  builder.AddChunk(a.checkpoint_id(), SaveOf(a));
  builder.AddChunk(b.checkpoint_id(), SaveOf(b));
  const std::vector<uint8_t> image = builder.Serialize();
  // No prefix of a valid image is itself valid; none may crash (the
  // sanitize-preset run of this test is the no-UB acceptance check).
  for (size_t len = 0; len < image.size(); ++len) {
    std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    CheckpointImageView view(prefix);
    EXPECT_FALSE(view.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(ImageContainerTest, RejectsFlippedPayloadBit) {
  CheckpointImageBuilder builder;
  Counter a("a");
  a.value = 0x0123456789ABCDEFull;
  builder.AddChunk(a.checkpoint_id(), SaveOf(a));
  std::vector<uint8_t> image = builder.Serialize();
  // The payload is the last 8 bytes of the image; corrupt one of them.
  image[image.size() - 3] ^= 0x10;
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("CRC"), std::string::npos) << view.error();

  // In v1 a repeated chunk id loses to the first, but its bytes are still
  // CRC-checked: a flipped bit anywhere in the image is an error.
  CheckpointImageBuilder dup;
  dup.AddChunk(a.checkpoint_id(), SaveOf(a));
  dup.AddChunk(a.checkpoint_id(), SaveOf(a));
  std::vector<uint8_t> duplicate = dup.Serialize();
  ASSERT_TRUE(CheckpointImageView(duplicate).ok());
  duplicate[duplicate.size() - 3] ^= 0x10;
  CheckpointImageView duplicate_view(duplicate);
  EXPECT_FALSE(duplicate_view.ok());
  EXPECT_NE(duplicate_view.error().find("CRC"), std::string::npos)
      << duplicate_view.error();
}

TEST(ImageContainerTest, UnknownChunksAreSkipped) {
  CheckpointImageBuilder builder;
  Counter known("known");
  known.value = 5;
  builder.AddChunk(known.checkpoint_id(), SaveOf(known));
  builder.AddChunk("from.the.future", {1, 2, 3, 4});
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  Counter restored("known");
  EXPECT_TRUE(view.RestoreInto(restored));
  EXPECT_EQ(restored.value, 5u);
}

TEST(ImageContainerTest, MissingChunkLeavesComponentUntouched) {
  CheckpointImageBuilder builder;
  Counter a("a");
  builder.AddChunk(a.checkpoint_id(), SaveOf(a));
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok());
  Counter other("not-in-image");
  other.value = 99;
  EXPECT_FALSE(view.RestoreInto(other));
  EXPECT_EQ(other.value, 99u);
}

TEST(ImageContainerTest, ShortChunkReportsPartialRestore) {
  CheckpointImageBuilder builder;
  builder.AddChunk("a", {1, 2});  // Counter reads 8 bytes
  const std::vector<uint8_t> image = builder.Serialize();
  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok());
  Counter a("a");
  EXPECT_FALSE(view.RestoreInto(a));

  // A nested blob whose declared length runs past its chunk: the delay
  // node's clock blob claims 1000 bytes of a 16-byte chunk.
  Simulator sim;
  DelayNode node(&sim, Rng(1), "delay0", ClockParams{});
  ArchiveWriter w;
  w.Write<uint64_t>(1000);
  w.Write<uint64_t>(0);
  const std::vector<uint8_t> overlong = w.Take();
  ArchiveReader r(overlong);
  const ArchiveReader clock = r.ReadNested();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(clock.ok());
  CheckpointImageBuilder nested;
  nested.AddChunk(node.checkpoint_id(), overlong);
  const std::vector<uint8_t> nested_image = nested.Serialize();
  const CheckpointImageView nested_view(nested_image);
  ASSERT_TRUE(nested_view.ok()) << nested_view.error();
  EXPECT_FALSE(nested_view.RestoreInto(node));
}

// Format version 2, retired, put an image id and a parent id in the header
// and a kind byte before each chunk's length. Writes the bytes its writer
// emitted for image id 5 holding one chunk.
std::vector<uint8_t> RetiredV2Image(const std::string& id,
                                    const std::vector<uint8_t>& payload) {
  ArchiveWriter w;
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(2);  // format version
  w.Write<uint64_t>(5);  // image id
  w.Write<uint64_t>(0);  // parent image id
  w.Write<uint64_t>(1);  // chunk count
  w.WriteString(id);
  w.Write<uint8_t>(1);  // chunk kind: payload
  w.Write<uint64_t>(payload.size());
  w.Write<uint32_t>(Crc32(payload));
  w.WriteBytes(payload.data(), payload.size());
  return w.Take();
}

TEST(ImageContainerTest, RefusesFormatVersion2) {
  Counter a("a");
  a.value = 17;
  const std::vector<uint8_t> image = RetiredV2Image(a.checkpoint_id(), SaveOf(a));
  const CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(view.error(), "unsupported format version 2");
  EXPECT_TRUE(view.chunks().empty());
  EXPECT_FALSE(view.RestoreInto(a));
}

// --- Seeded mutation fuzzing of the decoder ------------------------------------
//
// Flips bits in, truncates, splices, and overwrites the length fields of two
// images. Every mutant must be rejected with an error, or be accepted and
// round-trip: rebuilt through the builder it parses back to the same ids and
// payloads. The sanitize-preset run of this test is the no-UB check of the
// decoder.

struct SeedImage {
  std::vector<uint8_t> bytes;
  std::vector<size_t> length_fields;  // u64 offsets: chunk count, id and
                                      // payload lengths
  std::vector<size_t> boundaries;     // chunk starts, and the image end
};

// Builds the image and records its field offsets from the layout in
// src/sim/image.h, checked against the built size.
SeedImage MakeSeed(
    const std::vector<std::pair<std::string, std::vector<uint8_t>>>& chunks) {
  SeedImage seed;
  size_t pos = 8;  // magic, version
  seed.length_fields.push_back(pos);
  pos += sizeof(uint64_t);
  CheckpointImageBuilder builder;
  for (const auto& [id, payload] : chunks) {
    seed.boundaries.push_back(pos);
    seed.length_fields.push_back(pos);
    pos += sizeof(uint64_t) + id.size();
    seed.length_fields.push_back(pos);
    pos += sizeof(uint64_t) + sizeof(uint32_t) + payload.size();
    builder.AddChunk(id, payload);
  }
  seed.boundaries.push_back(pos);
  seed.bytes = builder.Serialize();
  EXPECT_EQ(pos, seed.bytes.size());
  return seed;
}

std::vector<uint8_t> BytesOf(ByteSpan span) {
  return std::vector<uint8_t>(span.data, span.data + span.size);
}

// True if the mutant is rejected with an error, or accepted and round-trips:
// its chunk ids are unique, each found by id, and its rebuild parses back to
// the same ids and payloads.
bool RejectedOrRoundTrips(const std::vector<uint8_t>& mutant, bool* accepted) {
  const CheckpointImageView view(mutant);
  *accepted = view.ok();
  if (!view.ok()) {
    return !view.error().empty() && view.chunks().empty();
  }
  std::set<std::string_view> unique;
  CheckpointImageBuilder builder;
  for (const CheckpointImageView::Chunk& c : view.chunks()) {
    if (!unique.insert(c.id).second || view.Find(c.id) != &c) {
      return false;
    }
    builder.AddChunk(std::string(c.id), BytesOf(c.payload));
  }
  const std::vector<uint8_t> rebuilt = builder.Serialize();
  const CheckpointImageView again(rebuilt);
  if (!again.ok() || again.chunks().size() != view.chunks().size()) {
    return false;
  }
  for (size_t i = 0; i < view.chunks().size(); ++i) {
    const CheckpointImageView::Chunk& a = view.chunks()[i];
    const CheckpointImageView::Chunk& b = again.chunks()[i];
    if (a.id != b.id || a.crc != b.crc ||
        BytesOf(a.payload) != BytesOf(b.payload)) {
      return false;
    }
  }
  return true;
}

TEST(ImageMutationTest, EveryMutantIsRejectedOrRoundTrips) {
  const std::vector<SeedImage> seeds = {
      MakeSeed({{"alpha", PayloadOf(1)}, {"beta", {1, 2, 3, 4, 5}}, {"", {}}}),
      MakeSeed({{"alpha", PayloadOf(2)}, {"beta", {6, 7, 8}}}),
  };
  for (const SeedImage& seed : seeds) {
    EXPECT_TRUE(CheckpointImageView(seed.bytes).ok());
  }
  const uint64_t kLengths[] = {0, 1, 4, 8, 13, 0x7FFFFFFFull,
                               0x4000000000000000ull, ~0ull};

  Rng rng(0x7C6B);
  const auto below = [&rng](size_t n) {
    return static_cast<size_t>(rng.NextUint64() % n);
  };
  size_t accepted_count = 0, rejected_count = 0;
  for (int round = 0; round < 3000; ++round) {
    const SeedImage& seed = seeds[below(seeds.size())];
    std::vector<uint8_t> mutant = seed.bytes;
    switch (round % 4) {
      case 0:  // flip one to three bits
        for (size_t k = 0, n = 1 + below(3); k < n; ++k) {
          mutant[below(mutant.size())] ^= static_cast<uint8_t>(1u << below(8));
        }
        break;
      case 1:  // truncate
        mutant.resize(below(mutant.size()));
        break;
      case 2: {  // splice a prefix of this seed onto a suffix of another,
                 // cut at any byte or at chunk boundaries (which can
                 // repeat or reorder whole chunks)
        const SeedImage& other = seeds[below(seeds.size())];
        const bool at_chunks = below(2) == 0;
        mutant.resize(at_chunks
                          ? seed.boundaries[below(seed.boundaries.size())]
                          : below(mutant.size() + 1));
        const size_t from =
            at_chunks ? other.boundaries[below(other.boundaries.size())]
                      : below(other.bytes.size() + 1);
        mutant.insert(mutant.end(), other.bytes.begin() + from,
                      other.bytes.end());
        break;
      }
      case 3: {  // overwrite a length field, near a boundary value
        const uint64_t base = kLengths[below(std::size(kLengths))];
        const uint64_t len =
            below(2) == 0 ? base : base + below(mutant.size());
        std::memcpy(mutant.data() + seed.length_fields[below(
                                        seed.length_fields.size())],
                    &len, sizeof(len));
        break;
      }
    }
    bool accepted = false;
    EXPECT_TRUE(RejectedOrRoundTrips(mutant, &accepted))
        << "mutant " << round << " (mutation " << round % 4 << ")";
    ++(accepted ? accepted_count : rejected_count);
  }
  // Both outcomes occur: the mutator reaches past the rejection paths.
  EXPECT_GT(accepted_count, 0u);
  EXPECT_GT(rejected_count, 0u);
}

// --- Per-component round trips ------------------------------------------------

TEST(ComponentRoundTripTest, RngRestoreReproducesSequence) {
  Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    rng.NextUint64();
  }
  ArchiveWriter w;
  rng.Save(&w);
  const std::vector<uint8_t> saved = w.Take();
  std::vector<uint64_t> expected;
  for (int i = 0; i < 10; ++i) {
    expected.push_back(rng.NextUint64());
  }

  Rng other(999);
  ArchiveReader r(saved);
  other.Restore(r);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(other.NextUint64(), expected[i]);
  }
}

TEST(ComponentRoundTripTest, PipeSaveRestoreSaveIsBitIdentical) {
  Simulator sim;
  DiscardSink sink;
  PipeConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  cfg.delay = 20 * kMillisecond;
  cfg.queue_limit_packets = 10;
  Pipe pipe(&sim, Rng(1), cfg, &sink);
  for (uint64_t i = 0; i < 5; ++i) {
    Packet pkt;
    pkt.id = i;
    pkt.src = 1;
    pkt.dst = 2;
    pkt.size_bytes = 1250;
    pipe.HandlePacket(pkt);
  }
  sim.RunUntil(3 * kMillisecond);
  pipe.Suspend();
  ArchiveWriter w1;
  pipe.Save(&w1);
  const std::vector<uint8_t> first = w1.Take();

  // Mutate: a fresh pipe with different config and traffic, then restore.
  DiscardSink sink2;
  Pipe other(&sim, Rng(77), PipeConfig{}, &sink2);
  Packet extra;
  extra.id = 100;
  extra.size_bytes = 500;
  other.HandlePacket(extra);
  ArchiveReader r(first);
  other.ResetForRestore();
  other.Restore(r);
  ASSERT_TRUE(r.ok());

  ArchiveWriter w2;
  other.Save(&w2);
  EXPECT_EQ(w2.data(), first);
}

TEST(ComponentRoundTripTest, BranchStoreSaveRestoreSaveIsBitIdentical) {
  Simulator sim;
  Disk disk(&sim, DiskParams{});
  BranchStore store(&disk, 4096);
  std::vector<uint64_t> block(8, 0xAB);
  bool done = false;
  store.Write(10, block, [&] { done = true; });
  store.Write(700, block, [&] {});
  sim.Run();
  ASSERT_TRUE(done);
  const std::vector<uint8_t> first = SaveOf(store);

  BranchStore other(&disk, 4096);
  std::vector<uint64_t> noise(8, 0xCD);
  other.Write(3, noise, [] {});
  sim.Run();
  ArchiveReader r(first);
  other.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SaveOf(other), first);
}

// Every component an experiment node registers must survive
// save -> restore -> save with bit-identical serialization; this is the
// format-stability guarantee image-based rollback depends on.
TEST(ComponentRoundTripTest, AllNodeComponentsRoundTripBitIdentically) {
  Simulator sim;
  NodeConfig cfg;
  cfg.name = "rt-node";
  cfg.id = 1;
  cfg.domain.memory_bytes = 64ull * 1024 * 1024;
  ExperimentNode node(&sim, Rng(5), cfg);
  sim.RunUntil(2 * kSecond);  // accumulate NTP, runstate and disk history

  std::vector<Checkpointable*> components;
  node.AppendCheckpointables(&components);
  ASSERT_GE(components.size(), 13u);
  for (Checkpointable* c : components) {
    const std::vector<uint8_t> first = SaveOf(*c);
    ArchiveReader r(first);
    c->RestoreState(r);
    EXPECT_TRUE(r.ok()) << c->checkpoint_id();
    EXPECT_EQ(SaveOf(*c), first) << c->checkpoint_id();
  }
}

}  // namespace
}  // namespace tcsim
