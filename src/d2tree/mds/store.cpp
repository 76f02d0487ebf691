#include "d2tree/mds/store.h"

#include <algorithm>

#include "d2tree/storage/memory_engine.h"
#include "d2tree/storage/sstable.h"

namespace d2tree {

const char* MdsStatusName(MdsStatus status) {
  switch (status) {
    case MdsStatus::kOk:
      return "ok";
    case MdsStatus::kNotFound:
      return "not-found";
    case MdsStatus::kNotPermitted:
      return "not-permitted";
    case MdsStatus::kWrongServer:
      return "wrong-server";
    case MdsStatus::kUnavailable:
      return "unavailable";
  }
  return "?";
}

MetadataStore::MetadataStore() : engine_(std::make_unique<MemoryEngine>()) {}

MetadataStore::MetadataStore(std::unique_ptr<StoreEngine> engine)
    : engine_(engine ? std::move(engine)
                     : std::make_unique<MemoryEngine>()) {}

void MetadataStore::Put(const InodeRecord& record) {
  MutexLock lock(&mu_);
  engine_->Put(record);
}

std::optional<InodeRecord> MetadataStore::Get(NodeId id) const {
  MutexLock lock(&mu_);
  return engine_->Get(id);
}

bool MetadataStore::Contains(NodeId id) const {
  MutexLock lock(&mu_);
  return engine_->Contains(id);
}

std::optional<InodeRecord> MetadataStore::Remove(NodeId id) {
  MutexLock lock(&mu_);
  return engine_->Remove(id);
}

std::optional<std::uint64_t> MetadataStore::Mutate(NodeId id,
                                                   std::uint64_t mtime) {
  MutexLock lock(&mu_);
  auto record = engine_->Get(id);
  if (!record.has_value()) return std::nullopt;
  record->attrs.mtime = mtime;
  ++record->version;
  engine_->Put(*record);
  return record->version;
}

bool MetadataStore::ApplyVersioned(NodeId id, std::uint64_t version,
                                   std::uint64_t mtime,
                                   const std::string& name) {
  MutexLock lock(&mu_);
  auto record = engine_->Get(id);
  if (!record.has_value() || record->version >= version) return false;
  if (name.empty())
    record->attrs.mtime = mtime;
  else
    record->name = name;
  record->version = version;
  engine_->Put(*record);
  return true;
}

std::vector<InodeRecord> MetadataStore::ExtractAll(
    const std::vector<NodeId>& ids) {
  MutexLock lock(&mu_);
  return engine_->ExtractAll(ids);
}

void MetadataStore::InsertAll(const std::vector<InodeRecord>& records) {
  MutexLock lock(&mu_);
  engine_->InsertAll(records);
}

std::vector<InodeRecord> MetadataStore::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<InodeRecord> out;
  out.reserve(engine_->Size());
  engine_->Scan([&out](const InodeRecord& rec) { out.push_back(rec); });
  return out;
}

void MetadataStore::Clear() {
  MutexLock lock(&mu_);
  engine_->Clear();
}

std::size_t MetadataStore::size() const {
  MutexLock lock(&mu_);
  return engine_->Size();
}

std::vector<NodeId> MetadataStore::HeldIds() const {
  MutexLock lock(&mu_);
  std::vector<NodeId> out;
  out.reserve(engine_->Size());
  engine_->Scan([&out](const InodeRecord& rec) { out.push_back(rec.id); });
  return out;
}

std::size_t MetadataStore::ExtractToTable(const std::vector<NodeId>& ids,
                                          const std::string& path) {
  MutexLock lock(&mu_);
  std::vector<InodeRecord> held;
  held.reserve(ids.size());
  for (NodeId id : ids) {
    auto record = engine_->Get(id);
    if (record.has_value()) held.push_back(std::move(*record));
  }
  if (held.empty()) return 0;
  const std::size_t sealed = held.size();
  if (!WriteRecordsTable(std::move(held), path)) return 0;
  // The table is durable; only now drop the records from the engine.
  engine_->ExtractAll(ids);
  return sealed;
}

std::size_t MetadataStore::IngestTable(const std::string& path) {
  MutexLock lock(&mu_);
  return engine_->IngestTableFile(path);
}

void MetadataStore::Flush() {
  MutexLock lock(&mu_);
  engine_->Flush();
}

StoreRecoveryInfo MetadataStore::Reopen() {
  MutexLock lock(&mu_);
  return engine_->Reopen();
}

void MetadataStore::TearWalTail(std::size_t bytes) {
  MutexLock lock(&mu_);
  engine_->TearWalTail(bytes);
}

std::vector<std::string> MetadataStore::AuditStorage() const {
  MutexLock lock(&mu_);
  return engine_->AuditStorage();
}

const char* MetadataStore::engine_name() const {
  MutexLock lock(&mu_);
  return engine_->name();
}

StoreEngineStats MetadataStore::EngineStats() const {
  MutexLock lock(&mu_);
  return engine_->Stats();
}

}  // namespace d2tree
