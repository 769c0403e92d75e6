// Coherence messages exchanged between cores and the directory, following
// the MSI directory protocol of Sorin–Hill–Wood that §3 of the paper
// analyzes: GetS/GetM requests, Fwd-GetS/Fwd-GetM owner forwards,
// invalidations with acks collected by the requester, and data responses.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace sbq::sim {

enum class MsgType : std::uint8_t {
  kGetS,     // core -> dir: request shared (read) permission
  kGetM,     // core -> dir: request exclusive (write) permission
  kFwdGetS,  // dir -> owner core: send data to requester, downgrade to S
  kFwdGetM,  // dir -> owner core: send data to requester, invalidate
  kInv,      // dir -> sharer core: invalidate, ack to requester
  kInvAck,   // sharer core -> requesting core
  kData,     // dir/owner -> requester: line data (+ expected ack count)
  kWbData,   // owner -> dir: line copy after an M->shared transition
};

const char* msg_type_name(MsgType t) noexcept;

// 32 bytes, the payload of an engine event record: the 8-byte fields
// first and `type` last, so no padding sits between them.
struct Message {
  Addr addr = 0;
  Value value = 0;        // payload for kData
  CoreId src = -1;        // sending node (core id, or directory)
  CoreId requester = -1;  // the core this transaction is on behalf of
  int ack_count = 0;      // for kData on a GetM: invalidations to expect
  MsgType type{};
};

}  // namespace sbq::sim
