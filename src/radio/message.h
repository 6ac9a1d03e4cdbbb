#pragma once

// The message vocabulary of the protocol suite.
//
// The paper allows messages of O(log n) bits; every field below is a node
// id, a level, or a sequence number, i.e. O(log n) bits each, so the struct
// respects the model. Per §4, data messages carry the id of the transmitting
// node and of its BFS parent, which is how a receiver decides whether the
// message came from a BFS child, its BFS parent, or an unrelated neighbor.

#include <cstdint>

#include "graph/graph.h"

namespace radiomc {

using SlotTime = std::uint64_t;
/// A slot that never comes: "no timer armed", "no future duty".
inline constexpr SlotTime kNever = ~SlotTime{0};
using ChannelId = std::uint32_t;

/// Destination value meaning "all nodes" (broadcast payloads).
inline constexpr NodeId kAllNodes = static_cast<NodeId>(-2);

enum class MsgKind : std::uint8_t {
  kData,          ///< collection / point-to-point payload (unique destination)
  kAck,           ///< deterministic acknowledgement (§3)
  kLeader,        ///< leader election: best-candidate flood
  kBfsAnnounce,   ///< BFS construction: "I am at level L, join below me"
  kDfsToken,      ///< token of the DFS traversals of §5.1
  kBcastData,     ///< distribution pipeline payload (§6)
  kNack,          ///< gap-repair request, routed to the root like data
  kSetupReport,   ///< "I joined the tree" verification message (§2)
};

struct Message {
  MsgKind kind = MsgKind::kData;
  NodeId origin = kNoNode;         ///< original source of the payload
  NodeId dest = kNoNode;           ///< final destination (kAllNodes = broadcast)
  NodeId sender = kNoNode;         ///< immediate transmitter (appended, §4)
  NodeId sender_parent = kNoNode;  ///< transmitter's BFS parent (appended, §4)
  std::uint32_t seq = 0;           ///< per-origin sequence number / message id
  std::uint32_t aux = 0;           ///< protocol-specific small field (level, ...)
  std::uint64_t payload = 0;       ///< application payload

  /// Identity of a payload for dedup/ack matching.
  friend bool same_payload(const Message& a, const Message& b) {
    return a.origin == b.origin && a.seq == b.seq;
  }
};

}  // namespace radiomc
