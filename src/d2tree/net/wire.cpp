#include "d2tree/net/wire.h"

#include <cstring>

#include "d2tree/durability/crc32.h"

namespace d2tree {

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kOneWay:
      return "one-way";
    case FrameKind::kCall:
      return "call";
    case FrameKind::kResponse:
      return "response";
    case FrameKind::kAck:
      return "ack";
  }
  return "?";
}

namespace {

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  const std::size_t n = s.size() > kMaxWireNameBytes ? kMaxWireNameBytes
                                                     : s.size();
  PutU32(out, static_cast<std::uint32_t>(n));
  out.insert(out.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
}

/// Bounds-checked little-endian reader over one frame body.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  bool ok() const noexcept { return ok_; }
  bool exhausted() const noexcept { return p_ == end_; }

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return *p_++;
  }
  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
    return v;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
    return v;
  }
  std::string String() {
    const std::uint32_t n = U32();
    if (!ok_ || n > kMaxWireNameBytes || !Need(n)) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

void PutAddress(std::vector<std::uint8_t>& out, const Address& a) {
  PutU8(out, static_cast<std::uint8_t>(a.kind));
  PutU32(out, static_cast<std::uint32_t>(a.id));
}

bool ReadAddress(Reader& r, Address* a) {
  const std::uint8_t kind = r.U8();
  const std::uint32_t id = r.U32();
  if (!r.ok() || kind > static_cast<std::uint8_t>(PeerKind::kMonitor))
    return false;
  a->kind = static_cast<PeerKind>(kind);
  a->id = static_cast<MdsId>(id);
  return true;
}

void PutRecord(std::vector<std::uint8_t>& out, const InodeRecord& rec) {
  PutU32(out, rec.id);
  PutU32(out, rec.parent);
  PutU8(out, static_cast<std::uint8_t>(rec.type));
  PutU32(out, rec.attrs.mode);
  PutU32(out, rec.attrs.uid);
  PutU32(out, rec.attrs.gid);
  PutU64(out, rec.attrs.size);
  PutU64(out, rec.attrs.mtime);
  PutU64(out, rec.attrs.ctime);
  PutU64(out, rec.version);
  PutString(out, rec.name);
}

bool ReadRecord(Reader& r, InodeRecord* rec) {
  rec->id = r.U32();
  rec->parent = r.U32();
  const std::uint8_t type = r.U8();
  rec->attrs.mode = r.U32();
  rec->attrs.uid = r.U32();
  rec->attrs.gid = r.U32();
  rec->attrs.size = r.U64();
  rec->attrs.mtime = r.U64();
  rec->attrs.ctime = r.U64();
  rec->version = r.U64();
  rec->name = r.String();
  if (!r.ok() || type > static_cast<std::uint8_t>(NodeType::kFile))
    return false;
  rec->type = static_cast<NodeType>(type);
  return true;
}

std::optional<WireEnvelope> DecodeBody(const std::uint8_t* data,
                                       std::size_t len) {
  Reader r(data, len);
  WireEnvelope env;
  if (r.U8() != kWireVersion) return std::nullopt;
  const std::uint8_t kind = r.U8();
  if (!r.ok() || kind > static_cast<std::uint8_t>(FrameKind::kAck))
    return std::nullopt;
  env.kind = static_cast<FrameKind>(kind);
  env.correlation_id = r.U64();
  if (!ReadAddress(r, &env.from) || !ReadAddress(r, &env.to))
    return std::nullopt;

  const std::uint8_t type = r.U8();
  const std::uint8_t status = r.U8();
  if (!r.ok() || type >= kMsgTypeCount ||
      status > static_cast<std::uint8_t>(MdsStatus::kUnavailable))
    return std::nullopt;
  env.msg.type = static_cast<MsgType>(type);
  env.msg.status = static_cast<MdsStatus>(status);
  env.msg.target = r.U32();
  env.msg.mtime = r.U64();
  env.msg.payload_records = static_cast<std::size_t>(r.U64());
  env.msg.migration_id = r.U64();
  env.msg.peer = static_cast<MdsId>(r.U32());
  env.msg.name = r.String();
  if (!ReadRecord(r, &env.msg.record)) return std::nullopt;
  // Trailing garbage after a well-formed body is corruption too: a frame
  // is exactly one envelope.
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return env;
}

}  // namespace

std::vector<std::uint8_t> EncodeFrame(const WireEnvelope& env) {
  std::vector<std::uint8_t> body;
  body.reserve(96 + env.msg.name.size() + env.msg.record.name.size());
  PutU8(body, kWireVersion);
  PutU8(body, static_cast<std::uint8_t>(env.kind));
  PutU64(body, env.correlation_id);
  PutAddress(body, env.from);
  PutAddress(body, env.to);

  PutU8(body, static_cast<std::uint8_t>(env.msg.type));
  PutU8(body, static_cast<std::uint8_t>(env.msg.status));
  PutU32(body, env.msg.target);
  PutU64(body, env.msg.mtime);
  PutU64(body, static_cast<std::uint64_t>(env.msg.payload_records));
  PutU64(body, env.msg.migration_id);
  PutU32(body, static_cast<std::uint32_t>(env.msg.peer));
  PutString(body, env.msg.name);
  PutRecord(body, env.msg.record);

  std::vector<std::uint8_t> frame;
  frame.reserve(kWireHeaderBytes + body.size());
  PutU32(frame, static_cast<std::uint32_t>(body.size()));
  PutU32(frame, Crc32(body.data(), body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len,
                         WireEnvelope* env, std::size_t* consumed) {
  *consumed = 0;
  if (len < kWireHeaderBytes) return DecodeStatus::kNeedMore;
  std::uint32_t body_len = 0;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i)
    body_len |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  for (int i = 0; i < 4; ++i)
    crc |= static_cast<std::uint32_t>(data[4 + i]) << (8 * i);
  if (body_len > kMaxWireFrameBytes) return DecodeStatus::kCorrupt;
  const std::size_t total = kWireHeaderBytes + body_len;
  if (len < total) return DecodeStatus::kNeedMore;
  const std::uint8_t* body = data + kWireHeaderBytes;
  if (Crc32(body, body_len) != crc) {
    *consumed = total;
    return DecodeStatus::kCorrupt;
  }
  std::optional<WireEnvelope> decoded = DecodeBody(body, body_len);
  if (!decoded.has_value()) {
    // CRC matched but the body does not parse — an encoder bug or a
    // deliberately malformed peer; either way the frame is poison.
    *consumed = total;
    return DecodeStatus::kCorrupt;
  }
  *env = *std::move(decoded);
  *consumed = total;
  return DecodeStatus::kOk;
}

}  // namespace d2tree
