#include "d2tree/mds/server.h"

namespace d2tree {

bool MdsServer::CheckAncestors(std::span<const NodeId> ancestors) const {
  for (NodeId a : ancestors) {
    if (!CanRead(a)) return false;
  }
  return true;
}

MdsOpResult MdsServer::Stat(NodeId target,
                            std::span<const NodeId> ancestors) const {
  MdsOpResult result;
  if (!alive()) {
    result.status = MdsStatus::kUnavailable;
    return result;
  }
  ++ops_;
  auto record = global_.Get(target);
  if (!record.has_value()) record = local_.Get(target);
  if (!record.has_value()) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  // POSIX traversal: every ancestor must be visible here. With an intact
  // subtree plus the replicated crown this always holds for correctly
  // routed requests; a violation means the request was misrouted.
  if (!CheckAncestors(ancestors)) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  result.status = MdsStatus::kOk;
  result.record = *record;
  return result;
}

bool MdsServer::ApplyPull(std::uint64_t migration_id,
                          const std::vector<InodeRecord>& records) {
  MutexLock lock(&pulls_mu_);
  if (!applied_pulls_.insert(migration_id).second) return false;  // dup
  local_.InsertAll(records);
  return true;
}

bool MdsServer::ApplyPullTable(std::uint64_t migration_id,
                               const std::string& path,
                               std::size_t* records_ingested) {
  MutexLock lock(&pulls_mu_);
  if (!applied_pulls_.insert(migration_id).second) return false;  // dup
  const std::size_t n = local_.IngestTable(path);
  if (records_ingested != nullptr) *records_ingested = n;
  return true;
}

void MdsServer::RestoreAppliedPulls(const std::vector<std::uint64_t>& ids) {
  MutexLock lock(&pulls_mu_);
  applied_pulls_.insert(ids.begin(), ids.end());
}

StoreRecoveryInfo MdsServer::LoseVolatileState(bool reopen_durable_local) {
  StoreRecoveryInfo info;
  if (reopen_durable_local) {
    info = local_.Reopen();
  } else {
    local_.Clear();
  }
  global_.Clear();
  MutexLock lock(&pulls_mu_);
  applied_pulls_.clear();
  return info;
}

MdsOpResult MdsServer::UpdateLocal(NodeId target,
                                   std::span<const NodeId> ancestors,
                                   std::uint64_t mtime) {
  MdsOpResult result;
  if (!alive()) {
    result.status = MdsStatus::kUnavailable;
    return result;
  }
  ++ops_;
  if (!local_.Contains(target)) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  if (!CheckAncestors(ancestors)) {
    result.status = MdsStatus::kWrongServer;
    return result;
  }
  local_.Mutate(target, mtime);
  result.status = MdsStatus::kOk;
  result.record = *local_.Get(target);
  return result;
}

}  // namespace d2tree
