// The default StoreEngine: an ordered in-RAM map (DESIGN.md §10).
//
// Functionally identical to the original unordered_map-backed
// MetadataStore; the ordered map additionally gives ascending-id Scan so
// memory and LSM backends produce byte-identical snapshots — the property
// the backend-parameterized suite (tests/test_store_property.cpp) pins.
#pragma once

#include <map>

#include "d2tree/storage/store_engine.h"

namespace d2tree {

class MemoryEngine final : public StoreEngine {
 public:
  const char* name() const noexcept override { return "memory"; }

  void Put(const InodeRecord& record) override {
    records_[record.id] = record;
  }

  std::optional<InodeRecord> Get(NodeId id) const override {
    const auto it = records_.find(id);
    if (it == records_.end()) return std::nullopt;
    return it->second;
  }

  bool Contains(NodeId id) const override { return records_.contains(id); }

  std::optional<InodeRecord> Remove(NodeId id) override {
    const auto it = records_.find(id);
    if (it == records_.end()) return std::nullopt;
    InodeRecord out = std::move(it->second);
    records_.erase(it);
    return out;
  }

  std::size_t Size() const override { return records_.size(); }

  void Clear() override { records_.clear(); }

  /// A process restart leaves a memory engine empty: everything it held
  /// was volatile. (The LSM engine instead replays its WAL and tables.)
  StoreRecoveryInfo Reopen() override {
    records_.clear();
    return {};
  }

  void Scan(
      const std::function<void(const InodeRecord&)>& fn) const override {
    for (const auto& [id, rec] : records_) fn(rec);
  }

 private:
  std::map<NodeId, InodeRecord> records_;
};

}  // namespace d2tree
