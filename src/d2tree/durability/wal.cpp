#include "d2tree/durability/wal.h"

#include <cstring>
#include <fstream>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/crc32.h"
#include "d2tree/durability/frame.h"

namespace d2tree {

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kPlacementSnapshot:
      return "placement-snapshot";
    case WalRecordType::kCapacitySnapshot:
      return "capacity-snapshot";
    case WalRecordType::kTxnIntent:
      return "intent";
    case WalRecordType::kTxnPrepare:
      return "prepare";
    case WalRecordType::kTxnCommit:
      return "commit";
    case WalRecordType::kTxnAbort:
      return "abort";
    case WalRecordType::kGlVersion:
      return "gl-version";
    case WalRecordType::kPullApplied:
      return "pull-applied";
  }
  return "?";
}

const char* CrashSiteName(CrashSite site) {
  switch (site) {
    case CrashSite::kAfterIntent:
      return "after-intent";
    case CrashSite::kAfterPrepare:
      return "after-prepare";
    case CrashSite::kAfterApply:
      return "after-apply";
    case CrashSite::kAfterCommit:
      return "after-commit";
    case CrashSite::kAfterGlBump:
      return "after-gl-bump";
  }
  return "?";
}

// Byte writers, the bounds-checked Reader and the CRC frame scan are the
// shared durable-artifact codec (durability/frame.h) — the LSM store's WAL
// and MANIFEST reuse the exact same framing.
using frame::PutDouble;
using frame::PutU32;
using frame::PutU64;
using frame::Reader;

std::vector<std::uint8_t> EncodeWalRecord(const WalRecord& r) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + 4 * r.owners.size() + 8 * r.capacities.size() +
              r.name.size() + r.prev_name.size());
  out.push_back(static_cast<std::uint8_t>(r.type));
  PutU64(out, r.txn_id);
  PutU64(out, static_cast<std::uint64_t>(r.root));
  PutU32(out, static_cast<std::uint32_t>(r.from));
  PutU32(out, static_cast<std::uint32_t>(r.to));
  PutU64(out, r.version);
  PutU64(out, r.count);
  PutU32(out, static_cast<std::uint32_t>(r.owners.size()));
  for (MdsId o : r.owners) PutU32(out, static_cast<std::uint32_t>(o));
  PutU32(out, static_cast<std::uint32_t>(r.capacities.size()));
  for (double c : r.capacities) PutDouble(out, c);
  PutU32(out, static_cast<std::uint32_t>(r.name.size()));
  out.insert(out.end(), r.name.begin(), r.name.end());
  PutU32(out, static_cast<std::uint32_t>(r.prev_name.size()));
  out.insert(out.end(), r.prev_name.begin(), r.prev_name.end());
  return out;
}

std::optional<WalRecord> DecodeWalRecord(const std::uint8_t* data,
                                         std::size_t len) {
  if (len == 0) return std::nullopt;
  WalRecord r;
  if (data[0] >= kWalRecordTypeCount)
    return std::nullopt;
  r.type = static_cast<WalRecordType>(data[0]);
  Reader in(data + 1, len - 1);
  std::uint64_t root = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t n = 0;
  if (!in.U64(&r.txn_id) || !in.U64(&root) || !in.U32(&from) ||
      !in.U32(&to) || !in.U64(&r.version) || !in.U64(&r.count) ||
      !in.U32(&n)) {
    return std::nullopt;
  }
  r.root = static_cast<NodeId>(root);
  r.from = static_cast<MdsId>(from);
  r.to = static_cast<MdsId>(to);
  if (in.remaining() < 4ULL * n) return std::nullopt;
  r.owners.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t o = 0;
    in.U32(&o);
    r.owners.push_back(static_cast<MdsId>(o));
  }
  if (!in.U32(&n) || in.remaining() < 8ULL * n) return std::nullopt;
  r.capacities.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    double c = 0.0;
    in.Double(&c);
    r.capacities.push_back(c);
  }
  if (!in.U32(&n) || in.remaining() < n) return std::nullopt;
  r.name.assign(reinterpret_cast<const char*>(data + (len - in.remaining())),
                n);
  in.Skip(n);
  if (!in.U32(&n) || in.remaining() < n) return std::nullopt;
  r.prev_name.assign(
      reinterpret_cast<const char*>(data + (len - in.remaining())), n);
  in.Skip(n);
  if (!in.exhausted() || in.failed()) return std::nullopt;
  return r;
}

void Wal::Append(const WalRecord& record) {
  const std::vector<std::uint8_t> payload = EncodeWalRecord(record);
  MutexLock lock(&mu_);
  frame::AppendFrame(bytes_, payload);
  ++appended_;
}

std::vector<WalRecord> Wal::Replay(WalReplayStats* stats) const {
  std::vector<std::uint8_t> snapshot;
  {
    MutexLock lock(&mu_);
    snapshot = bytes_;
  }
  std::vector<WalRecord> records;
  const frame::ScanStats scan = frame::ScanFrames(
      snapshot.data(), snapshot.size(),
      [&records](const std::uint8_t* payload, std::size_t len) {
        auto record = DecodeWalRecord(payload, len);
        if (!record.has_value()) return false;  // CRC collision on garbage
        records.push_back(std::move(*record));
        return true;
      });
  if (stats != nullptr) {
    stats->records = scan.frames;
    stats->bytes_scanned = scan.bytes_scanned;
    stats->torn_tail = scan.torn_tail;
    stats->torn_bytes = scan.torn_bytes;
  }
  return records;
}

void Wal::TruncateTail(std::size_t bytes) {
  MutexLock lock(&mu_);
  bytes_.resize(bytes_.size() - std::min(bytes, bytes_.size()));
}

std::size_t Wal::size_bytes() const {
  MutexLock lock(&mu_);
  return bytes_.size();
}

std::size_t Wal::records_appended() const {
  MutexLock lock(&mu_);
  return appended_;
}

std::vector<std::uint8_t> Wal::Bytes() const {
  MutexLock lock(&mu_);
  return bytes_;
}

void Wal::Assign(std::vector<std::uint8_t> bytes) {
  MutexLock lock(&mu_);
  bytes_ = std::move(bytes);
  appended_ = 0;  // unknown provenance; replay counts what parses
}

bool Wal::SaveTo(const std::string& path) const {
  const std::vector<std::uint8_t> snapshot = Bytes();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(snapshot.data()),
            static_cast<std::streamsize>(snapshot.size()));
  return static_cast<bool>(out);
}

bool Wal::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  Assign(std::move(bytes));
  return true;
}

}  // namespace d2tree
