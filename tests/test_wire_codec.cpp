// Wire-codec property tests (ctest label "codec"): the socket transport's
// framing must be total — every byte sequence either decodes to exactly
// the envelope that was encoded, asks for more bytes, or reports
// corruption. It must never crash, never read past the buffer (ASan holds
// it to that in the asan CI job) and never accept a tampered frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "d2tree/durability/crc32.h"
#include "d2tree/net/wire.h"

namespace d2tree {
namespace {

// The protocol registry: every MsgType enumerator, by name. d2lint's
// registry rule holds this table to the enum — adding a message type
// without extending it (and the sweep below) fails the lint, and the
// static_assert catches a table that falls behind the enum's count.
constexpr MsgType kAllMsgTypes[] = {
    MsgType::kStatRequest,     MsgType::kStatResponse,
    MsgType::kUpdateRequest,   MsgType::kUpdateResponse,
    MsgType::kForward,         MsgType::kHeartbeat,
    MsgType::kPendingPoolPush, MsgType::kPendingPoolPull,
    MsgType::kGlWriteLock,     MsgType::kGlCommit,
    MsgType::kRenameRequest,   MsgType::kRenameResponse,
    MsgType::kBulkTable,
};
static_assert(std::size(kAllMsgTypes) == kMsgTypeCount,
              "kAllMsgTypes must list every MsgType enumerator");

Message MessageOfEveryField() {
  Message m;
  m.type = MsgType::kPendingPoolPull;
  m.target = 123456;
  m.mtime = 0xDEADBEEFCAFEF00DULL;
  m.status = MdsStatus::kWrongServer;
  m.payload_records = 77;
  m.migration_id = 0x1122334455667788ULL;
  m.peer = 3;
  m.name = "renamed-component";
  m.record.id = 42;
  m.record.parent = 7;
  m.record.type = NodeType::kFile;
  m.record.name = "file.dat";
  m.record.attrs.mode = 0644;
  m.record.attrs.uid = 1000;
  m.record.attrs.gid = 100;
  m.record.attrs.size = 1ULL << 40;
  m.record.attrs.mtime = 1700000000;
  m.record.attrs.ctime = 1600000000;
  m.record.version = 9;
  return m;
}

WireEnvelope EnvelopeOf(Message m, FrameKind kind = FrameKind::kCall) {
  WireEnvelope env;
  env.kind = kind;
  env.correlation_id = 0xABCDEF0123456789ULL;
  env.from = ClientAddress();
  env.to = MdsAddress(2);
  env.msg = std::move(m);
  return env;
}

TEST(WireCodec, RoundTripsEveryFieldByteExactly) {
  const WireEnvelope env = EnvelopeOf(MessageOfEveryField());
  const std::vector<std::uint8_t> frame = EncodeFrame(env);
  ASSERT_GE(frame.size(), kWireHeaderBytes);

  WireEnvelope decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded, env);
}

TEST(WireCodec, RoundTripsEveryMsgTypeKindAndStatus) {
  for (const MsgType type : kAllMsgTypes) {
    const auto t = static_cast<std::uint8_t>(type);
    for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(FrameKind::kAck);
         ++k) {
      Message m = MessageOfEveryField();
      m.type = type;
      m.status = static_cast<MdsStatus>(
          t % (static_cast<std::uint8_t>(MdsStatus::kUnavailable) + 1));
      WireEnvelope env = EnvelopeOf(std::move(m), static_cast<FrameKind>(k));
      const auto frame = EncodeFrame(env);
      WireEnvelope decoded;
      std::size_t consumed = 0;
      ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
                DecodeStatus::kOk)
          << "type " << int(t) << " kind " << int(k);
      EXPECT_EQ(decoded, env);
    }
  }
}

TEST(WireCodec, PayloadFidelityAtTheBounds) {
  // Maximum-size name and empty name both round-trip exactly.
  Message max = MessageOfEveryField();
  max.name = std::string(kMaxWireNameBytes, 'x');
  max.record.name = std::string(kMaxWireNameBytes, 'y');
  Message empty = MessageOfEveryField();
  empty.name.clear();
  empty.record.name.clear();
  for (const Message* m : {&max, &empty}) {
    const WireEnvelope env = EnvelopeOf(*m);
    const auto frame = EncodeFrame(env);
    WireEnvelope decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded, env);
  }
}

TEST(WireCodec, OverlongNamesAreTruncatedToTheBoundNotRejected) {
  Message m = MessageOfEveryField();
  m.name = std::string(kMaxWireNameBytes + 500, 'z');
  const auto frame = EncodeFrame(EnvelopeOf(m));
  WireEnvelope decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
            DecodeStatus::kOk)
      << "the encoder must never emit a frame its decoder rejects";
  EXPECT_EQ(decoded.msg.name.size(), kMaxWireNameBytes);
}

// 200+ seeded random messages: every shape round-trips.
TEST(WireCodec, SeededRandomMessagesRoundTrip) {
  std::mt19937_64 rng(0xC0DEC);
  const auto u8 = [&](std::uint64_t bound) {
    return static_cast<std::uint8_t>(rng() % bound);
  };
  for (int i = 0; i < 250; ++i) {
    WireEnvelope env;
    env.kind = static_cast<FrameKind>(
        u8(static_cast<std::uint8_t>(FrameKind::kAck) + 1));
    env.correlation_id = rng();
    env.from = {static_cast<PeerKind>(u8(3)), static_cast<MdsId>(rng() % 64)};
    env.to = {static_cast<PeerKind>(u8(3)), static_cast<MdsId>(rng() % 64)};
    env.msg.type = static_cast<MsgType>(
        u8(kMsgTypeCount));
    env.msg.status = static_cast<MdsStatus>(
        u8(static_cast<std::uint8_t>(MdsStatus::kUnavailable) + 1));
    env.msg.target = static_cast<NodeId>(rng());
    env.msg.mtime = rng();
    env.msg.payload_records = static_cast<std::size_t>(rng() % 100000);
    env.msg.migration_id = rng();
    env.msg.peer = static_cast<MdsId>(rng() % 128);
    env.msg.name.assign(rng() % 64, static_cast<char>('a' + (rng() % 26)));
    env.msg.record.id = static_cast<NodeId>(rng());
    env.msg.record.parent = static_cast<NodeId>(rng());
    env.msg.record.type = static_cast<NodeType>(u8(2));
    env.msg.record.name.assign(rng() % 256,
                               static_cast<char>('A' + (rng() % 26)));
    env.msg.record.attrs.mode = static_cast<std::uint32_t>(rng());
    env.msg.record.attrs.uid = static_cast<std::uint32_t>(rng());
    env.msg.record.attrs.gid = static_cast<std::uint32_t>(rng());
    env.msg.record.attrs.size = rng();
    env.msg.record.attrs.mtime = rng();
    env.msg.record.attrs.ctime = rng();
    env.msg.record.version = rng();

    const auto frame = EncodeFrame(env);
    WireEnvelope decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
              DecodeStatus::kOk)
        << "iteration " << i;
    ASSERT_EQ(decoded, env) << "iteration " << i;
    ASSERT_EQ(consumed, frame.size());
  }
}

// Every strict prefix of a valid frame must ask for more bytes — never
// decode, never report corruption, never read past the prefix.
TEST(WireCodec, EveryTruncationAsksForMore) {
  const auto frame = EncodeFrame(EnvelopeOf(MessageOfEveryField()));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    // A fresh copy of exactly `len` bytes so ASan catches any overread.
    const std::vector<std::uint8_t> prefix(frame.begin(),
                                           frame.begin() + len);
    WireEnvelope decoded;
    std::size_t consumed = 1;
    EXPECT_EQ(DecodeFrame(prefix.data(), prefix.size(), &decoded, &consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

// Any single bit flip is caught: the CRC (or a bounds check) rejects the
// frame. A flipped frame must never decode as kOk.
TEST(WireCodec, EveryBitFlipIsRejected) {
  const auto frame = EncodeFrame(EnvelopeOf(MessageOfEveryField()));
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> tampered = frame;
      tampered[byte] ^= static_cast<std::uint8_t>(1u << bit);
      WireEnvelope decoded;
      std::size_t consumed = 0;
      const DecodeStatus st =
          DecodeFrame(tampered.data(), tampered.size(), &decoded, &consumed);
      // A flip in the length field may claim a longer frame (kNeedMore) or
      // an oversized one (kCorrupt); everything else must be kCorrupt.
      EXPECT_NE(st, DecodeStatus::kOk)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(WireCodec, RandomGarbageNeverDecodes) {
  std::mt19937_64 rng(0xBAD);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> junk(rng() % 512);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    WireEnvelope decoded;
    std::size_t consumed = 0;
    const DecodeStatus st =
        DecodeFrame(junk.data(), junk.size(), &decoded, &consumed);
    // Random bytes can claim any length, so kNeedMore is legal; a clean
    // decode would need a CRC collision over random data.
    EXPECT_NE(st, DecodeStatus::kOk) << "iteration " << i;
  }
}

TEST(WireCodec, OversizedLengthIsCorruptImmediately) {
  std::vector<std::uint8_t> frame(kWireHeaderBytes, 0);
  const std::uint32_t huge = kMaxWireFrameBytes + 1;
  for (int i = 0; i < 4; ++i)
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  WireEnvelope decoded;
  std::size_t consumed = 99;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
            DecodeStatus::kCorrupt);
  EXPECT_EQ(consumed, 0u) << "nothing sane to skip — the conn dies anyway";
}

// A frame whose CRC is valid but whose body violates the schema is
// corruption, not a crash: the CRC protects against line noise, the body
// validation against broken or malicious encoders.
TEST(WireCodec, CrcValidMalformedBodyIsCorrupt) {
  // Each tamper targets one validated body byte; the CRC is recomputed so
  // framing passes and only the body validation can object.
  struct Tamper {
    const char* what;
    std::size_t body_offset;
    std::uint8_t value;
  };
  const Tamper tampers[] = {
      {"wire version", 0, kWireVersion + 9},
      {"frame kind", 1, 200},
      // Body offset 2..9 is the correlation id; 10 is from.kind.
      {"from peer kind", 10, 99},
      // 11..14 from.id, 15..19 the to address; 20 is the message type.
      {"message type", 20, static_cast<std::uint8_t>(kMsgTypeCount)},
  };
  for (const Tamper& t : tampers) {
    auto frame = EncodeFrame(EnvelopeOf(MessageOfEveryField()));
    frame[kWireHeaderBytes + t.body_offset] = t.value;
    const std::uint32_t crc = Crc32(frame.data() + kWireHeaderBytes,
                                    frame.size() - kWireHeaderBytes);
    for (int i = 0; i < 4; ++i)
      frame[4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));

    WireEnvelope decoded;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &decoded, &consumed),
              DecodeStatus::kCorrupt)
        << t.what;
    EXPECT_EQ(consumed, frame.size())
        << "a whole well-framed frame is skipped, the stream stays aligned";
  }
}

TEST(WireCodec, StreamingPeelsFramesOneAtATime) {
  const WireEnvelope a = EnvelopeOf(MessageOfEveryField(), FrameKind::kCall);
  WireEnvelope b = EnvelopeOf(MessageOfEveryField(), FrameKind::kResponse);
  b.correlation_id = 5;
  b.msg.name = "second";
  const auto fa = EncodeFrame(a);
  const auto fb = EncodeFrame(b);

  std::vector<std::uint8_t> stream = fa;
  stream.insert(stream.end(), fb.begin(), fb.end() - 3);  // partial tail

  WireEnvelope decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(stream.data(), stream.size(), &decoded, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded, a);
  EXPECT_EQ(consumed, fa.size());

  stream.erase(stream.begin(),
               stream.begin() + static_cast<std::ptrdiff_t>(consumed));
  ASSERT_EQ(DecodeFrame(stream.data(), stream.size(), &decoded, &consumed),
            DecodeStatus::kNeedMore);

  stream.insert(stream.end(), fb.end() - 3, fb.end());
  ASSERT_EQ(DecodeFrame(stream.data(), stream.size(), &decoded, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded, b);
}

}  // namespace
}  // namespace d2tree
