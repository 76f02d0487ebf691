#include "d2tree/net/message.h"

namespace d2tree {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kStatRequest:
      return "stat-req";
    case MsgType::kStatResponse:
      return "stat-resp";
    case MsgType::kUpdateRequest:
      return "update-req";
    case MsgType::kUpdateResponse:
      return "update-resp";
    case MsgType::kForward:
      return "forward";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kPendingPoolPush:
      return "pool-push";
    case MsgType::kPendingPoolPull:
      return "pool-pull";
    case MsgType::kGlWriteLock:
      return "gl-write-lock";
    case MsgType::kGlCommit:
      return "gl-commit";
    case MsgType::kRenameRequest:
      return "rename-req";
    case MsgType::kRenameResponse:
      return "rename-resp";
    case MsgType::kBulkTable:
      return "bulk-table";
  }
  return "?";
}

const char* PeerKindName(PeerKind kind) {
  switch (kind) {
    case PeerKind::kClient:
      return "client";
    case PeerKind::kMds:
      return "mds";
    case PeerKind::kMonitor:
      return "monitor";
  }
  return "?";
}

}  // namespace d2tree
