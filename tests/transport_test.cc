// Wire-format and transport-concurrency tests: ChunkMessage round-trips
// and malformed-input rejection, plus the BoundedTransport MPMC queue
// (backpressure, close/drain protocol, many producers x many consumers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "storage/transport.h"

namespace ciao {
namespace {

json::JsonChunk MakeChunk(const std::vector<std::string>& records) {
  json::JsonChunk chunk;
  for (const auto& r : records) chunk.AppendSerialized(r);
  return chunk;
}

ChunkMessage MakeMessage() {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})", R"({"a":2})", R"({"a":3})"});
  msg.predicate_ids = {1, 4};
  msg.annotations = BitVectorSet(2, 3);
  msg.annotations.mutable_vector(0)->Set(0, true);
  msg.annotations.mutable_vector(1)->Set(2, true);
  return msg;
}

// ---------- ChunkMessage wire format ----------

TEST(ChunkMessageRoundTripTest, FullRoundTrip) {
  const ChunkMessage msg = MakeMessage();
  std::string payload;
  msg.SerializeTo(&payload);

  auto decoded = ChunkMessage::Deserialize(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->chunk.size(), 3u);
  EXPECT_EQ(decoded->chunk.Record(0), R"({"a":1})");
  EXPECT_EQ(decoded->chunk.Record(2), R"({"a":3})");
  EXPECT_EQ(decoded->predicate_ids, msg.predicate_ids);
  EXPECT_TRUE(decoded->annotations == msg.annotations);
}

TEST(ChunkMessageRoundTripTest, EmptyIdsRoundTrip) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"x":true})"});
  std::string payload;
  msg.SerializeTo(&payload);
  auto decoded = ChunkMessage::Deserialize(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->predicate_ids.empty());
  EXPECT_EQ(decoded->annotations.num_predicates(), 0u);
  EXPECT_EQ(decoded->chunk.size(), 1u);
}

TEST(ChunkMessageRoundTripTest, SerializeAppendsAfterExistingBytes) {
  // SerializeTo appends; a framing layer may have written a prefix.
  const ChunkMessage msg = MakeMessage();
  std::string payload = "prefix";
  msg.SerializeTo(&payload);
  ASSERT_EQ(payload.substr(0, 6), "prefix");
  auto decoded = ChunkMessage::Deserialize(
      std::string_view(payload).substr(6));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->chunk.size(), 3u);
}

TEST(ChunkMessageMalformedTest, TruncatedAtEveryPrefixRejectedOrShorter) {
  // No prefix strictly shorter than the full message may decode to the
  // original content; most must be rejected as corruption.
  const ChunkMessage msg = MakeMessage();
  std::string payload;
  msg.SerializeTo(&payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = ChunkMessage::Deserialize(payload.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(ChunkMessageMalformedTest, BadMagicRejected) {
  const ChunkMessage msg = MakeMessage();
  std::string payload;
  msg.SerializeTo(&payload);
  payload[0] = 'X';
  EXPECT_TRUE(ChunkMessage::Deserialize(payload).status().IsCorruption());
  EXPECT_TRUE(ChunkMessage::Deserialize("").status().IsCorruption());
  EXPECT_TRUE(ChunkMessage::Deserialize("CMS").status().IsCorruption());
}

TEST(ChunkMessageMalformedTest, TruncatedHeaderRejected) {
  // Magic plus a partial id-count word.
  EXPECT_TRUE(
      ChunkMessage::Deserialize(std::string("CMSG\x02\x00", 6))
          .status()
          .IsCorruption());
}

TEST(ChunkMessageMalformedTest, OversizedNdjsonLengthRejected) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})"});
  std::string payload;
  msg.SerializeTo(&payload);
  // Corrupt the u64 NDJSON length (offset: magic 4 + id count 4) to claim
  // more bytes than the buffer holds.
  payload[8] = '\xff';
  payload[9] = '\xff';
  EXPECT_TRUE(ChunkMessage::Deserialize(payload).status().IsCorruption());
}

TEST(ChunkMessageMalformedTest, HugeCountsRejectedWithoutAllocating) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})"});
  std::string payload;
  msg.SerializeTo(&payload);
  // The message ends with the annotation set's u32 vector count (0 here).
  // ff ff ff ff once asked BitVectorSet for a ~128 GB reservation.
  std::string huge_set = payload;
  huge_set.replace(huge_set.size() - 4, 4, "\xff\xff\xff\xff");
  EXPECT_TRUE(ChunkMessage::Deserialize(huge_set).status().IsCorruption());
  // Same for the predicate-id count (offset: magic 4 + mask 4).
  std::string huge_ids = payload;
  huge_ids.replace(8, 4, "\xff\xff\xff\xff");
  EXPECT_TRUE(ChunkMessage::Deserialize(huge_ids).status().IsCorruption());
  // An NDJSON length near 2^64 must not wrap the bounds check.
  std::string huge_len = payload;
  huge_len.replace(12, 8, "\xf8\xff\xff\xff\xff\xff\xff\xff");
  EXPECT_TRUE(ChunkMessage::Deserialize(huge_len).status().IsCorruption());
}

TEST(ChunkMessageMalformedTest, OutOfRangePredicateIdViaExpand) {
  ChunkMessage msg;
  msg.chunk = MakeChunk({R"({"a":1})", R"({"a":2})"});
  msg.predicate_ids = {7};  // only 3 predicates exist server-side
  msg.annotations = BitVectorSet(1, 2);

  std::string payload;
  msg.SerializeTo(&payload);
  auto decoded = ChunkMessage::Deserialize(payload);
  ASSERT_TRUE(decoded.ok());  // wire format itself is fine
  EXPECT_TRUE(decoded->ExpandAnnotations(3).status().IsOutOfRange());
  // With a large enough registry the same message expands fine.
  auto expanded = decoded->ExpandAnnotations(8);
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->num_predicates(), 8u);
  EXPECT_FALSE(expanded->vector(7).Any());  // the client's exact bits
  EXPECT_TRUE(expanded->vector(0).All());   // unevaluated -> maybe
}

// ---------- BoundedTransport ----------

TEST(BoundedTransportTest, FifoAndBytesSent) {
  BoundedTransport transport(/*capacity=*/4);
  ASSERT_TRUE(transport.Send("one").ok());
  ASSERT_TRUE(transport.Send("two").ok());
  EXPECT_EQ(transport.bytes_sent(), 6u);
  EXPECT_EQ(transport.pending(), 2u);
  EXPECT_EQ(**transport.Receive(), "one");
  EXPECT_EQ(**transport.Receive(), "two");
  EXPECT_EQ(transport.pending(), 0u);
}

TEST(BoundedTransportTest, CloseDrainsThenSignalsEnd) {
  BoundedTransport transport(4);
  transport.AddProducers(1);
  ASSERT_TRUE(transport.Send("a").ok());
  ASSERT_TRUE(transport.Send("b").ok());
  transport.ProducerDone();  // last producer -> closed
  EXPECT_TRUE(transport.closed());
  // Remaining messages still drain in order...
  EXPECT_EQ(**transport.Receive(), "a");
  EXPECT_EQ(**transport.Receive(), "b");
  // ...then receivers observe end-of-stream instead of blocking.
  auto end = transport.Receive();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(BoundedTransportTest, SendAfterCloseFails) {
  BoundedTransport transport(2);
  transport.Close();
  EXPECT_TRUE(transport.Send("late").IsIOError());
}

TEST(BoundedTransportTest, MultipleProducersCloseOnlyAfterLast) {
  BoundedTransport transport(2);
  transport.AddProducers(2);
  transport.ProducerDone();
  EXPECT_FALSE(transport.closed());
  transport.ProducerDone();
  EXPECT_TRUE(transport.closed());
}

TEST(BoundedTransportTest, BackpressureBlocksProducerUntilConsumed) {
  BoundedTransport transport(/*capacity=*/2);
  transport.AddProducers(1);
  std::atomic<int> sent{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(transport.Send(std::to_string(i)).ok());
      sent.fetch_add(1);
    }
    transport.ProducerDone();
  });

  // The producer can get at most capacity ahead of the consumer; give it
  // ample time to run into the wall.
  for (int spin = 0; spin < 100 && sent.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(sent.load(), 3);  // 2 queued + 1 possibly mid-Send
  EXPECT_LE(transport.pending(), 2u);

  int received = 0;
  while (true) {
    auto payload = transport.Receive();
    ASSERT_TRUE(payload.ok());
    if (!payload->has_value()) break;
    EXPECT_EQ(**payload, std::to_string(received));
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, 6);
  EXPECT_EQ(sent.load(), 6);
}

TEST(BoundedTransportTest, CloseUnblocksWaitingProducer) {
  BoundedTransport transport(1);
  ASSERT_TRUE(transport.Send("fill").ok());
  std::atomic<bool> failed{false};
  std::thread producer([&] {
    failed = transport.Send("blocked").IsIOError();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  transport.Close();
  producer.join();
  EXPECT_TRUE(failed.load());
}

TEST(BoundedTransportTest, ManyProducersManyConsumersConserveMessages) {
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 3;
  constexpr size_t kPerProducer = 200;

  BoundedTransport transport(/*capacity=*/8);
  transport.AddProducers(kProducers);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(
            transport.Send("p" + std::to_string(p) + ":" + std::to_string(i))
                .ok());
      }
      transport.ProducerDone();
    });
  }

  std::atomic<size_t> consumed{0};
  std::atomic<size_t> consumed_bytes{0};
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto payload = transport.Receive();
        ASSERT_TRUE(payload.ok());
        if (!payload->has_value()) break;
        consumed.fetch_add(1);
        consumed_bytes.fetch_add((*payload)->size());
      }
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(consumed_bytes.load(), transport.bytes_sent());
  EXPECT_EQ(transport.pending(), 0u);
}

}  // namespace
}  // namespace ciao
