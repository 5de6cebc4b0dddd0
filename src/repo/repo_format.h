// On-disk format constants for the durable checkpoint repository.
//
// A repository directory holds one (segment, journal) file pair per
// GC epoch plus a CURRENT pointer file:
//
//   CURRENT      "epoch N\n", rewritten by atomic rename — names the live pair
//   segment.N    append-only chunk payload store (content-addressed)
//   journal.N    write-ahead log of repository operations
//
// Segment file:
//   header : magic u32 ("TSEG") | format version u32
//   record : magic u32 ("TSRC") | payload length u64 | CRC32 u32 | payload
//
// Journal file:
//   header : magic u32 ("TJRN") | format version u32
//   record : magic u32 ("TJRC") | type u8 | payload length u64 | payload
//          | CRC32 u32 (over the payload)
//
// Durability protocol: payload bytes are appended to the segment and flushed
// *before* the journal record that references them is appended, so a journal
// record is visible only when every byte it points at is durable. Recovery
// replays the journal sequentially, truncates a torn tail at the first
// unparsable record, and verifies the CRC of every referenced payload before
// declaring the repository open.

#ifndef TCSIM_SRC_REPO_REPO_FORMAT_H_
#define TCSIM_SRC_REPO_REPO_FORMAT_H_

#include <cstdint>
#include <vector>

namespace tcsim {

inline constexpr uint32_t kSegmentMagic = 0x47455354;        // "TSEG"
inline constexpr uint32_t kSegmentRecordMagic = 0x43525354;  // "TSRC"
inline constexpr uint32_t kJournalMagic = 0x4E524A54;        // "TJRN"
inline constexpr uint32_t kJournalRecordMagic = 0x43524A54;  // "TJRC"
inline constexpr uint32_t kRepoFormatVersion = 1;

// Journal record types. Type 3 (the compaction of a parent-linked record)
// is retired: Open refuses it like any unknown type.
inline constexpr uint8_t kJournalPutImage = 1;
inline constexpr uint8_t kJournalRetireImage = 2;
inline constexpr uint8_t kJournalNextHandle = 4;
// A group-committed epoch of puts: the payload is a count followed by
// length-prefixed put-image sub-records. The whole batch shares one CRC
// frame, so recovery sees the epoch all-or-nothing — a tear anywhere inside
// the record makes every image of the batch invisible, never a prefix.
inline constexpr uint8_t kJournalBatchPut = 5;

// Fixed framing sizes (used by recovery bounds checks and space accounting).
inline constexpr uint64_t kSegmentHeaderBytes = 8;
inline constexpr uint64_t kSegmentRecordOverhead = 4 + 8 + 4;
inline constexpr uint64_t kJournalHeaderBytes = 8;
inline constexpr uint64_t kJournalRecordOverhead = 4 + 1 + 8 + 4;

// Identity of a stored payload: 64-bit FNV-1a content hash, CRC32, and size.
// Two payloads agreeing on all three fields are treated as identical bytes
// (the cross-image dedup assumption; a 96-bit accidental collision is beyond
// the reach of the workloads this repository serves).
struct ContentKey {
  uint64_t hash = 0;
  uint32_t crc = 0;
  uint64_t size = 0;

  friend bool operator==(const ContentKey&, const ContentKey&) = default;
  friend auto operator<=>(const ContentKey&, const ContentKey&) = default;
};

// Computes the content key of a payload (FNV-1a 64 + CRC32 + length).
ContentKey ContentKeyOf(const uint8_t* data, uint64_t size);
ContentKey ContentKeyOf(const std::vector<uint8_t>& payload);

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_REPO_FORMAT_H_
