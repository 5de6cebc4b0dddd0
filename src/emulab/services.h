// Emulab-provided network services used from inside experiments, and the
// timestamp transduction that conceals swapped-out time (Section 5.2).
//
// A swapped-out experiment's virtual time falls behind the outside world.
// For stateless, time-aware protocols (NFS v2 here), the paper conceals the
// difference by rewriting timestamps at the experiment boundary: outbound
// guest timestamps become actual time; inbound server timestamps become
// guest virtual time. The NfsClient below performs exactly that filtering.

#ifndef TCSIM_SRC_EMULAB_SERVICES_H_
#define TCSIM_SRC_EMULAB_SERVICES_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/guest/node.h"
#include "src/net/packet.h"
#include "src/net/stack.h"
#include "src/sim/time.h"

namespace tcsim {

inline constexpr uint16_t kNfsPort = 2049;
inline constexpr uint16_t kNfsClientPort = 900;
inline constexpr uint16_t kDnsPort = 53;
inline constexpr uint16_t kDnsClientPort = 901;
inline constexpr uint16_t kNtpPort = 123;
inline constexpr uint16_t kNtpClientPort = 902;

// An NFS v2-style message. mtime is the timestamp the transducer rewrites.
struct NfsMessage : public AppPayload {
  enum class Op { kWrite, kGetattr, kReply };
  Op op = Op::kGetattr;
  std::string path;
  uint64_t bytes = 0;
  SimTime mtime = 0;       // file modification time (embedded timestamp)
  uint64_t request_id = 0;

  std::vector<SimTime*> MutableTimestamps() override { return {&mtime}; }
};

// The fs server: stateless NFS over the control network, with files kept in
// server (real) time.
class NfsServer {
 public:
  explicit NfsServer(NetworkStack* fs_stack, uint16_t port = kNfsPort);

  struct FileAttr {
    uint64_t bytes = 0;
    SimTime mtime = 0;  // server wall-clock time
  };

  const FileAttr* Lookup(const std::string& path) const;
  size_t file_count() const { return files_.size(); }

  // Server-side write by the outside world (users touching files while an
  // experiment is swapped out); stamps the server's current time.
  void WriteLocal(const std::string& path, uint64_t bytes) {
    files_[path] = FileAttr{bytes, stack_->sim()->Now()};
  }

 private:
  void OnRequest(const Packet& pkt);

  NetworkStack* stack_;
  uint16_t port_;
  std::unordered_map<std::string, FileAttr> files_;
};

// The in-guest NFS client plus the boundary transducer. Replies are
// delivered with timestamps already converted to guest virtual time.
class NfsClient {
 public:
  NfsClient(ExperimentNode* node, NodeId fs_addr);

  // Writes `bytes` to `path` on the server; `done` receives the file's
  // mtime as observed by the guest (virtual time).
  void WriteFile(const std::string& path, uint64_t bytes,
                 std::function<void(SimTime mtime_virtual)> done);

  // Fetches `path`'s attributes; `done` receives the mtime in virtual time.
  void GetAttr(const std::string& path, std::function<void(SimTime mtime_virtual)> done);

 private:
  void OnReply(const Packet& pkt);

  // Boundary transduction (both directions).
  void TransduceOutbound(NfsMessage* msg);
  void TransduceInbound(NfsMessage* msg);

  ExperimentNode* node_;
  NodeId fs_addr_;
  uint64_t next_request_ = 1;
  std::unordered_map<uint64_t, std::function<void(SimTime)>> pending_;
};

// --- DNS (stateless; no embedded timestamps, so nothing to transduce) --------

struct DnsMessage : public AppPayload {
  bool is_reply = false;
  std::string name;
  NodeId address = kInvalidNode;
  uint64_t request_id = 0;
};

// The testbed name service on boss. Stateless by design (Section 5.2):
// swapped-out time needs no concealment here.
class DnsServer {
 public:
  explicit DnsServer(NetworkStack* boss_stack, uint16_t port = kDnsPort);

  void AddRecord(const std::string& name, NodeId address) { records_[name] = address; }

 private:
  void OnRequest(const Packet& pkt);

  NetworkStack* stack_;
  uint16_t port_;
  std::unordered_map<std::string, NodeId> records_;
};

// In-guest resolver.
class DnsClient {
 public:
  DnsClient(ExperimentNode* node, NodeId server_addr);

  // Resolves `name`; `done` receives the address (kInvalidNode on NXDOMAIN).
  void Resolve(const std::string& name, std::function<void(NodeId)> done);

 private:
  ExperimentNode* node_;
  NodeId server_addr_;
  uint64_t next_request_ = 1;
  std::unordered_map<uint64_t, std::function<void(NodeId)>> pending_;
};

// --- NTP service (time-aware: every field is a timestamp) --------------------

struct NtpMessage : public AppPayload {
  bool is_reply = false;
  SimTime originate = 0;  // client transmit time (client clock)
  SimTime receive = 0;    // server receive time (server clock)
  SimTime transmit = 0;   // server transmit time (server clock)
  uint64_t request_id = 0;

  std::vector<SimTime*> MutableTimestamps() override {
    return {&originate, &receive, &transmit};
  }
};

// The testbed NTP server on boss, answering with server (real) time.
class NtpServer {
 public:
  explicit NtpServer(NetworkStack* boss_stack, uint16_t port = kNtpPort);

 private:
  void OnRequest(const Packet& pkt);

  NetworkStack* stack_;
  uint16_t port_;
};

// In-guest NTP client with boundary transduction: the guest must measure an
// offset near zero even after arbitrarily long concealed suspensions —
// otherwise guest NTP would "correct" the virtual clock toward real time and
// destroy the transparency the checkpoint bought (Section 5.2).
class GuestNtpClient {
 public:
  GuestNtpClient(ExperimentNode* node, NodeId server_addr);

  // One NTP exchange; `done` receives the measured clock offset as the
  // guest computes it from the (transduced) reply timestamps.
  void MeasureOffset(std::function<void(SimTime offset)> done);

 private:
  ExperimentNode* node_;
  NodeId server_addr_;
  uint64_t next_request_ = 1;
  std::unordered_map<uint64_t, std::function<void(SimTime)>> pending_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_EMULAB_SERVICES_H_
