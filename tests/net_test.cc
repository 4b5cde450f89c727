// Network serving tier tests (net/*): the frame codec must reject every
// malformed byte stream (bad magic/version/type, CRC mismatch, oversized
// length prefix) without ever mis-framing; the epoll server must deliver
// responses in request order, byte-identical to the file-manifest path
// whether a request arrives in one write or one byte at a time; and the
// socket-level chaos matrix — mid-frame disconnects, truncated streams,
// bit flips, slow-loris stalls, connection and queue floods — must end
// every time in a structured error frame or a clean close with the
// server still answering, across 1 and 16 concurrent connections.
//
// Everything runs single-threaded: the tests drive NetServer::PollOnce
// directly, interleaved with nonblocking client reads, because workers
// fork without exec and forking is only safe from a single-threaded
// process (base/subprocess.h). This also keeps the suite deterministic
// under TSan/ASan.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/subprocess.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "serve/request.h"
#include "serve/service.h"

namespace gqe {
namespace {

constexpr const char* kNetProgram = R"(
nv0(a). nv0(b). nv0(c).
nvlink(a, b). nvlink(b, c).
nv0(X) -> nv1(X).
nv1(X) -> nv2(X).
nv2(X) -> nv3(X).
nvlink(X, Y) -> nvconn(X, Y).
nvq(X) :- nv3(X).
)";

std::string WriteProgram(const std::string& name) {
  std::string path = ::testing::TempDir() + "gqe_net_" + name + ".gqe";
  std::FILE* file = std::fopen(path.c_str(), "w");
  EXPECT_NE(file, nullptr) << path;
  if (file != nullptr) {
    std::fputs(kNetProgram, file);
    std::fclose(file);
  }
  return path;
}

ServeOptions FastServeOptions() {
  ServeOptions options;
  options.concurrency = 4;
  options.backoff_base_ms = 2.0;
  options.backoff_cap_ms = 20.0;
  options.heartbeat_timeout_ms = 400.0;
  return options;
}

NetServerOptions FastNetOptions() {
  NetServerOptions options;
  options.port = 0;
  options.frame_read_timeout_ms = 30000.0;
  options.idle_timeout_ms = 60000.0;
  return options;
}

std::string RequestLine(const std::string& id, const std::string& program,
                        const std::string& query = "nvq") {
  return "id=" + id + " kind=cq program=" + program + " query=" + query;
}

/// What the batch path prints for this request — the golden bytes every
/// network test compares result frames against.
std::string FileManifestLine(const std::string& line) {
  Manifest manifest;
  std::string error;
  EXPECT_TRUE(ParseManifest(line, ".", &manifest, &error)) << error;
  ServeReport report = ServeManifest(manifest, FastServeOptions());
  return report.DeterministicText();
}

class NetFixture : public ::testing::Test {
 protected:
  void Start(const ServeOptions& serve_options,
             const NetServerOptions& net_options) {
    server_ = std::make_unique<NetServer>(serve_options, net_options);
    std::string error;
    ASSERT_TRUE(server_->Listen(&error)) << error;
  }

  std::unique_ptr<NetClient> Connect() {
    auto client = std::make_unique<NetClient>();
    std::string error;
    EXPECT_TRUE(client->Connect("127.0.0.1", server_->port(), 2000, &error))
        << error;
    // The accept happens on the server's next poll turn.
    server_->PollOnce(0);
    return client;
  }

  /// Interleaves server turns with one nonblocking client read until a
  /// non-timeout outcome. Bounded, so a server bug reads as a test
  /// failure instead of a hung suite.
  NetClient::RecvResult PumpRecv(NetClient* client, Frame* frame,
                                 int max_turns = 20000) {
    std::string error;
    for (int i = 0; i < max_turns; ++i) {
      server_->PollOnce(1);
      const NetClient::RecvResult r = client->RecvFrame(frame, 0, &error);
      if (r != NetClient::RecvResult::kTimeout) return r;
    }
    return NetClient::RecvResult::kTimeout;
  }

  bool PumpUntil(const std::function<bool()>& done, int max_turns = 20000) {
    for (int i = 0; i < max_turns; ++i) {
      if (done()) return true;
      server_->PollOnce(1);
    }
    return done();
  }

  std::unique_ptr<NetServer> server_;
};

// ---------------------------------------------------------------------------
// Frame codec.

TEST(FrameCodec, RoundTripsMixedFramesFedWhole) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(FrameType::kRequest, "id=r1 kind=cq"));
  decoder.Feed(EncodeFrame(FrameType::kResult, "result: ok\n"));
  decoder.Feed(EncodeFrame(FrameType::kPing, ""));

  Frame frame;
  std::string error;
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.payload, "id=r1 kind=cq");
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, "result: ok\n");
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameCodec, DecodesOneByteAtATime) {
  const std::string bytes =
      EncodeFrame(FrameType::kRequest, "id=r1 kind=chase program=p.gqe");
  FrameDecoder decoder;
  Frame frame;
  std::string error;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(std::string_view(bytes).substr(i, 1));
    EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
    EXPECT_TRUE(decoder.mid_frame());
  }
  decoder.Feed(std::string_view(bytes).substr(bytes.size() - 1));
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.payload, "id=r1 kind=chase program=p.gqe");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameCodec, EveryPayloadBitFlipIsCaught) {
  const std::string clean = EncodeFrame(FrameType::kRequest, "id=r kind=cq");
  for (size_t byte = kFrameHeaderSize; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = clean;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1u << bit));
      FrameDecoder decoder;
      decoder.Feed(damaged);
      Frame frame;
      std::string error;
      EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError)
          << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(decoder.failed());
    }
  }
}

TEST(FrameCodec, RejectsBadMagicVersionAndType) {
  const std::string clean = EncodeFrame(FrameType::kRequest, "x");
  const size_t damage_offsets[] = {0, 2, 3};  // magic, version, type
  for (size_t offset : damage_offsets) {
    std::string damaged = clean;
    damaged[offset] = '\x63';
    FrameDecoder decoder;
    decoder.Feed(damaged);
    Frame frame;
    std::string error;
    EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError)
        << "offset " << offset;
    EXPECT_FALSE(error.empty());
  }
}

TEST(FrameCodec, OversizedLengthPrefixRejectedFromHeaderAlone) {
  // Only the 12 header bytes arrive; the advertised 2 GiB payload never
  // does. The decoder must fail on the header, not wait (or allocate).
  std::string header = EncodeFrame(FrameType::kRequest, "x");
  header.resize(kFrameHeaderSize);
  header[4] = '\xff';
  header[5] = '\xff';
  header[6] = '\xff';
  header[7] = '\x7f';
  FrameDecoder decoder(1 << 20);
  decoder.Feed(header);
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  EXPECT_NE(error.find("payload"), std::string::npos);
}

TEST(FrameCodec, FailureIsSticky) {
  FrameDecoder decoder;
  decoder.Feed("garbage that is not a frame");
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  // A valid frame after the damage must NOT resynchronize the stream —
  // alignment is gone and resyncing could fabricate frames.
  decoder.Feed(EncodeFrame(FrameType::kPing, ""));
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
}

TEST(FrameCodec, ErrorPayloadSplits) {
  std::string code, detail;
  SplitErrorPayload(MakeErrorPayload("OVERLOADED", "queue full"), &code,
                    &detail);
  EXPECT_EQ(code, "OVERLOADED");
  EXPECT_EQ(detail, "queue full");
  SplitErrorPayload("BARE", &code, &detail);
  EXPECT_EQ(code, "BARE");
  EXPECT_TRUE(detail.empty());
  SplitErrorPayload("CODE only-code-wanted", &code, nullptr);
  EXPECT_EQ(code, "CODE");
}

// ---------------------------------------------------------------------------
// ReadFrameBlocking: the storage-shard worker's read side, over a pipe.

class FramePipe {
 public:
  FramePipe() { EXPECT_EQ(::pipe(fds_), 0); }
  ~FramePipe() {
    CloseWrite();
    if (fds_[0] >= 0) ::close(fds_[0]);
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  void CloseWrite() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST(ReadFrameBlocking, TwoFramesInOneWrite) {
  FramePipe pipe;
  ASSERT_TRUE(WriteAllToFd(pipe.write_fd(),
                           EncodeFrame(FrameType::kStorageCommand, "one") +
                               EncodeFrame(FrameType::kStorageReply, "two")));
  pipe.CloseWrite();
  FrameDecoder decoder;
  Frame frame;
  ASSERT_TRUE(ReadFrameBlocking(pipe.read_fd(), &decoder, &frame));
  EXPECT_EQ(frame.type, FrameType::kStorageCommand);
  EXPECT_EQ(frame.payload, "one");
  ASSERT_TRUE(ReadFrameBlocking(pipe.read_fd(), &decoder, &frame));
  EXPECT_EQ(frame.type, FrameType::kStorageReply);
  EXPECT_EQ(frame.payload, "two");
  EXPECT_FALSE(ReadFrameBlocking(pipe.read_fd(), &decoder, &frame));
  EXPECT_FALSE(decoder.failed());  // a clean EOF between frames
}

TEST(ReadFrameBlocking, OneFrameSplitAcrossWrites) {
  // Larger than a pipe buffer and than one read() chunk, written in
  // pieces that cut the header and the payload, so the reader blocks
  // between them and reassembles across many reads.
  std::string payload(200 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 7 + 3);
  }
  const std::string bytes = EncodeFrame(FrameType::kStorageCommand, payload);
  FramePipe pipe;
  // The writer thread is joined before the test returns, and nothing
  // forks while it runs.
  std::thread writer([&] {
    const size_t cuts[] = {0, 5, kFrameHeaderSize + 1, 70000, bytes.size()};
    for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
      WriteAllToFd(pipe.write_fd(), std::string_view(bytes).substr(
                                        cuts[i], cuts[i + 1] - cuts[i]));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pipe.CloseWrite();
  });
  FrameDecoder decoder(1 << 20);
  Frame frame;
  const bool read = ReadFrameBlocking(pipe.read_fd(), &decoder, &frame);
  // Drain to EOF so a reader that gave up early cannot leave the writer
  // blocked on a full pipe.
  char sink[4096];
  while (::read(pipe.read_fd(), sink, sizeof(sink)) > 0) {
  }
  writer.join();
  ASSERT_TRUE(read);
  EXPECT_EQ(frame.type, FrameType::kStorageCommand);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ReadFrameBlocking, EofMidFrameReturnsFalse) {
  const std::string bytes = EncodeFrame(FrameType::kStorageReply, "partial");
  FramePipe pipe;
  ASSERT_TRUE(WriteAllToFd(pipe.write_fd(),
                           std::string_view(bytes).substr(0, bytes.size() - 3)));
  pipe.CloseWrite();
  FrameDecoder decoder;
  Frame frame;
  EXPECT_FALSE(ReadFrameBlocking(pipe.read_fd(), &decoder, &frame));
  EXPECT_FALSE(decoder.failed());
  EXPECT_TRUE(decoder.mid_frame());
}

TEST(ReadFrameBlocking, OversizedLengthReturnsFalseWithoutAllocating) {
  // Only the header arrives and the write end stays open: the reader must
  // fail on the header alone. The read end is non-blocking so a reader
  // that waited for the payload would fail the test, not hang it.
  std::string header = EncodeFrame(FrameType::kStorageCommand, "x");
  header.resize(kFrameHeaderSize);
  header[4] = '\xff';
  header[5] = '\xff';
  header[6] = '\xff';
  header[7] = '\x7f';
  FramePipe pipe;
  ASSERT_EQ(::fcntl(pipe.read_fd(), F_SETFL, O_NONBLOCK), 0);
  ASSERT_TRUE(WriteAllToFd(pipe.write_fd(), header));
  FrameDecoder decoder(1 << 20);
  Frame frame;
  EXPECT_FALSE(ReadFrameBlocking(pipe.read_fd(), &decoder, &frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), kFrameHeaderSize);
  EXPECT_TRUE(frame.payload.empty());
}

// ---------------------------------------------------------------------------
// Server behavior over real sockets.

TEST_F(NetFixture, ResultFrameIsByteIdenticalToFileManifestPath) {
  const std::string program = WriteProgram("ident");
  const std::string line = RequestLine("r1", program);
  const std::string golden = FileManifestLine(line);

  Start(FastServeOptions(), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendRequest(line));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, golden);
}

TEST_F(NetFixture, ByteAtATimeRequestMatchesSingleWriteByteForByte) {
  const std::string program = WriteProgram("slow");
  const std::string line = RequestLine("r1", program);
  const std::string bytes = EncodeFrame(FrameType::kRequest, line);

  Start(FastServeOptions(), FastNetOptions());
  auto fast = Connect();
  ASSERT_TRUE(fast->SendRaw(bytes));
  Frame fast_frame;
  ASSERT_EQ(PumpRecv(fast.get(), &fast_frame), NetClient::RecvResult::kFrame);

  // Same request, delivered one byte per server turn: the decoder sees
  // 40+ partial reads instead of one.
  auto slow = Connect();
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(slow->SendRaw(std::string_view(bytes).substr(i, 1)));
    server_->PollOnce(0);
  }
  Frame slow_frame;
  ASSERT_EQ(PumpRecv(slow.get(), &slow_frame), NetClient::RecvResult::kFrame);

  EXPECT_EQ(fast_frame.type, FrameType::kResult);
  EXPECT_EQ(slow_frame.type, FrameType::kResult);
  EXPECT_EQ(slow_frame.payload, fast_frame.payload);
}

TEST_F(NetFixture, ResponsesComeBackInRequestOrder) {
  const std::string program = WriteProgram("order");
  Start(FastServeOptions(), FastNetOptions());
  auto client = Connect();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        client->SendRequest(RequestLine("r" + std::to_string(i), program)));
  }
  for (int i = 0; i < 6; ++i) {
    Frame frame;
    ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
    ASSERT_EQ(frame.type, FrameType::kResult);
    EXPECT_NE(frame.payload.find("id=r" + std::to_string(i) + " "),
              std::string::npos)
        << frame.payload;
  }
}

TEST_F(NetFixture, PingPongAndHalfCloseDrain) {
  const std::string program = WriteProgram("half");
  Start(FastServeOptions(), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendFrame(FrameType::kPing, "probe"));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.payload, "probe");

  // Half-close with a request still owed: the response must arrive,
  // then the server closes cleanly.
  ASSERT_TRUE(client->SendRequest(RequestLine("r1", program)));
  client->ShutdownWrite();
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kClosed);
  EXPECT_TRUE(PumpUntil([&] { return server_->connections() == 0; }));
}

TEST_F(NetFixture, BadRequestKeepsConnectionUsable) {
  const std::string program = WriteProgram("bad");
  Start(FastServeOptions(), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendRequest("id=r1 kind=cq bogus-field=1"));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  std::string code;
  SplitErrorPayload(frame.payload, &code, nullptr);
  EXPECT_EQ(code, "BAD_REQUEST");

  // Request-scoped error: the same connection still serves.
  ASSERT_TRUE(client->SendRequest(RequestLine("r2", program)));
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(server_->stats().bad_requests, 1u);
}

TEST_F(NetFixture, ConnectionCapShedsWithStructuredOverload) {
  const std::string program = WriteProgram("cap");
  NetServerOptions net = FastNetOptions();
  net.max_connections = 2;
  Start(FastServeOptions(), net);
  auto a = Connect();
  auto b = Connect();
  auto c = Connect();  // over the cap
  Frame frame;
  ASSERT_EQ(PumpRecv(c.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  std::string code;
  SplitErrorPayload(frame.payload, &code, nullptr);
  EXPECT_EQ(code, "OVERLOADED");
  EXPECT_EQ(PumpRecv(c.get(), &frame), NetClient::RecvResult::kClosed);

  // The under-cap connections were untouched.
  ASSERT_TRUE(a->SendRequest(RequestLine("r1", program)));
  ASSERT_EQ(PumpRecv(a.get(), &frame), NetClient::RecvResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(server_->stats().shed_overloaded, 1u);
}

TEST_F(NetFixture, QueueCapacityShedsLaterRequestsInOrder) {
  const std::string program = WriteProgram("queue");
  NetServerOptions net = FastNetOptions();
  net.queue_capacity = 1;
  net.coalesce = false;  // identical requests must not share one slot here
  ServeOptions serve = FastServeOptions();
  serve.concurrency = 1;
  Start(serve, net);
  auto client = Connect();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        client->SendRequest(RequestLine("r" + std::to_string(i), program)));
  }
  // All four frames land before the engine runs: r0 admitted, r1–r3
  // shed. FIFO ordering still holds — the shed errors queue behind r0's
  // result.
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_NE(frame.payload.find("id=r0 "), std::string::npos);
  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
    ASSERT_EQ(frame.type, FrameType::kError) << i;
    std::string code;
    SplitErrorPayload(frame.payload, &code, nullptr);
    EXPECT_EQ(code, "OVERLOADED");
  }
  EXPECT_EQ(server_->stats().shed_overloaded, 3u);
  EXPECT_EQ(server_->stats().admitted, 1u);
}

TEST_F(NetFixture, CoalescingSharesOneEvaluationAcrossWaiters) {
  const std::string program = WriteProgram("coalesce");
  Start(FastServeOptions(), FastNetOptions());
  auto a = Connect();
  auto b = Connect();
  // Same evaluation (ids differ — the coalesce key ignores them), two
  // on one connection and one on another, all in flight together.
  ASSERT_TRUE(a->SendRequest(RequestLine("a1", program)));
  ASSERT_TRUE(a->SendRequest(RequestLine("a2", program)));
  ASSERT_TRUE(b->SendRequest(RequestLine("b1", program)));

  Frame frame;
  ASSERT_EQ(PumpRecv(a.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_NE(frame.payload.find("id=a1 "), std::string::npos);
  ASSERT_EQ(PumpRecv(a.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_NE(frame.payload.find("id=a2 "), std::string::npos);
  ASSERT_EQ(PumpRecv(b.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_NE(frame.payload.find("id=b1 "), std::string::npos);

  // One worker evaluation served all three (the frames arrived in one
  // turn, before the engine could finish the first).
  EXPECT_EQ(server_->stats().admitted, 1u);
  EXPECT_EQ(server_->stats().coalesced, 2u);
}

TEST_F(NetFixture, SlowLorisGetsTimeoutFrameAndClose) {
  NetServerOptions net = FastNetOptions();
  net.frame_read_timeout_ms = 30.0;
  Start(FastServeOptions(), net);
  auto client = Connect();
  // Six header bytes, then silence.
  const std::string bytes = EncodeFrame(FrameType::kRequest, "id=x kind=cq");
  ASSERT_TRUE(client->SendRaw(std::string_view(bytes).substr(0, 6)));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  std::string code;
  SplitErrorPayload(frame.payload, &code, nullptr);
  EXPECT_EQ(code, "TIMEOUT");
  EXPECT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kClosed);
  EXPECT_EQ(server_->stats().timeouts, 1u);
}

TEST_F(NetFixture, StorageFrameFromClientIsProtocolErrorAndClose) {
  Start(FastServeOptions(), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendRaw(EncodeFrame(FrameType::kStorageCommand, "x")));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  std::string code;
  SplitErrorPayload(frame.payload, &code, nullptr);
  EXPECT_EQ(code, "PROTOCOL");
  EXPECT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kClosed);
  EXPECT_EQ(server_->stats().protocol_errors, 1u);
}

TEST_F(NetFixture, IdleConnectionsAreReaped) {
  NetServerOptions net = FastNetOptions();
  net.idle_timeout_ms = 20.0;
  Start(FastServeOptions(), net);
  auto client = Connect();
  EXPECT_EQ(server_->connections(), 1u);
  EXPECT_TRUE(PumpUntil([&] { return server_->connections() == 0; }));
  Frame frame;
  std::string error;
  EXPECT_EQ(client->RecvFrame(&frame, 100, &error),
            NetClient::RecvResult::kClosed);
}

TEST_F(NetFixture, GracefulDrainFinishesInFlightThenExits) {
  const std::string program = WriteProgram("drain");
  Start(FastServeOptions(), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendRequest(RequestLine("r1", program)));
  // Let the request frame reach the engine, then start draining.
  EXPECT_TRUE(PumpUntil([&] { return server_->stats().admitted == 1; }));
  server_->RequestDrain();

  // A request submitted after the drain began is refused, structured.
  ASSERT_TRUE(client->SendRequest(RequestLine("r2", program)));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);  // r1 finishes first (FIFO)
  EXPECT_NE(frame.payload.find("id=r1 "), std::string::npos);
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  std::string code;
  SplitErrorPayload(frame.payload, &code, nullptr);
  EXPECT_EQ(code, "SHUTTING_DOWN");

  // With nothing owed, the drain completes: PollOnce reports done.
  EXPECT_TRUE(PumpUntil([&] { return !server_->PollOnce(1); }));
  EXPECT_EQ(server_->connections(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos matrix: every fault, at 1 and 16 concurrent connections, ends in
// a structured error or a clean close — and the server still answers.

enum class ChaosFault {
  kMidframeDisconnect,
  kTruncateThenEof,
  kBitflip,
  kOversize,
  kBadMagic,
  kUnknownType,
};

class NetChaosTest : public NetFixture,
                     public ::testing::WithParamInterface<int> {};

TEST_P(NetChaosTest, EveryFaultEndsStructuredAndServerSurvives) {
  const int n_conns = GetParam();
  const std::string program = WriteProgram("chaos" + std::to_string(n_conns));
  const std::string line = RequestLine("c", program);
  const std::string valid = EncodeFrame(FrameType::kRequest, line);

  NetServerOptions net = FastNetOptions();
  net.max_connections = 64;
  Start(FastServeOptions(), net);

  const ChaosFault faults[] = {
      ChaosFault::kMidframeDisconnect, ChaosFault::kTruncateThenEof,
      ChaosFault::kBitflip,            ChaosFault::kOversize,
      ChaosFault::kBadMagic,           ChaosFault::kUnknownType,
  };
  std::vector<std::unique_ptr<NetClient>> clients;
  std::vector<ChaosFault> applied;
  for (int i = 0; i < n_conns; ++i) {
    auto client = Connect();
    const ChaosFault fault = faults[i % (sizeof(faults) / sizeof(faults[0]))];
    std::string damaged = valid;
    switch (fault) {
      case ChaosFault::kMidframeDisconnect:
        ASSERT_TRUE(client->SendRaw(
            std::string_view(damaged).substr(0, kFrameHeaderSize + 3)));
        client->Close();
        break;
      case ChaosFault::kTruncateThenEof:
        ASSERT_TRUE(client->SendRaw(
            std::string_view(damaged).substr(0, damaged.size() - 4)));
        client->ShutdownWrite();
        break;
      case ChaosFault::kBitflip:
        damaged[kFrameHeaderSize + (i % 7)] ^= 0x10;
        ASSERT_TRUE(client->SendRaw(damaged));
        break;
      case ChaosFault::kOversize:
        damaged[4] = '\xff';
        damaged[5] = '\xff';
        damaged[6] = '\xff';
        damaged[7] = '\x7f';
        ASSERT_TRUE(client->SendRaw(damaged));
        break;
      case ChaosFault::kBadMagic:
        damaged[0] = '\x00';
        ASSERT_TRUE(client->SendRaw(damaged));
        break;
      case ChaosFault::kUnknownType:
        damaged[3] = '\x4d';
        ASSERT_TRUE(client->SendRaw(damaged));
        break;
    }
    applied.push_back(fault);
    clients.push_back(std::move(client));
    server_->PollOnce(0);
  }

  // Every faulted connection resolves: a structured PROTOCOL error, a
  // clean close, or a reset — never a hang, never a result for a
  // corrupted request.
  for (int i = 0; i < n_conns; ++i) {
    NetClient* client = clients[i].get();
    if (!client->connected()) continue;  // mid-frame disconnect case
    bool resolved = false;
    for (int turns = 0; turns < 20000 && !resolved; ++turns) {
      Frame frame;
      std::string error;
      switch (PumpRecv(client, &frame, 1)) {
        case NetClient::RecvResult::kFrame: {
          ASSERT_EQ(frame.type, FrameType::kError)
              << "conn " << i << " fault " << static_cast<int>(applied[i]);
          std::string code;
          SplitErrorPayload(frame.payload, &code, nullptr);
          EXPECT_EQ(code, "PROTOCOL");
          break;  // close follows
        }
        case NetClient::RecvResult::kClosed:
        case NetClient::RecvResult::kError:
          resolved = true;
          break;
        case NetClient::RecvResult::kTimeout:
          break;
      }
    }
    EXPECT_TRUE(resolved) << "conn " << i << " never resolved";
  }
  EXPECT_TRUE(PumpUntil([&] { return server_->connections() == 0; }));

  // The proof of survival: a clean request still round-trips, and its
  // bytes still match the file-manifest path.
  const std::string golden = FileManifestLine(line);
  auto survivor = Connect();
  ASSERT_TRUE(survivor->SendRaw(valid));
  Frame frame;
  ASSERT_EQ(PumpRecv(survivor.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, golden);
}

INSTANTIATE_TEST_SUITE_P(Conns, NetChaosTest, ::testing::Values(1, 16));

// ---------------------------------------------------------------------------
// Durable serving: the write-ahead journal across daemon death.

/// A fresh journal directory per test case.
std::string JournalDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gqe_net_journal_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

ServeOptions JournaledServeOptions(const std::string& dir) {
  ServeOptions options = FastServeOptions();
  options.journal_dir = dir;
  options.journal_fsync = false;  // the tests kill processes, not power
  return options;
}

TEST_F(NetFixture, CrashRestartUnderLoadRepliesByteIdentically) {
  // The PR's acceptance contract: kill the daemon mid-flight under >= 4
  // concurrent connections, restart it on the same journal, have every
  // client reconnect and resend — and every result line must be
  // byte-identical to a fault-free run of the same requests. Destroying
  // the NetServer is this harness's `kill -9`: in-flight workers die
  // un-reaped and nothing is flushed beyond what the journal already
  // recorded at admission time.
  const std::string program = WriteProgram("crashload");
  const std::string dir = JournalDir("crashload");
  constexpr int kConns = 4;
  constexpr int kRequests = 8;

  std::vector<std::string> lines;
  std::vector<std::string> golden;
  for (int i = 0; i < kRequests; ++i) {
    // Distinct budgets: eight real evaluations, not one coalesced one.
    std::string line = RequestLine("n" + std::to_string(i), program) +
                       " max_facts=" + std::to_string(10000 + i);
    golden.push_back(FileManifestLine(line));
    lines.push_back(std::move(line));
  }

  Start(JournaledServeOptions(dir), FastNetOptions());
  std::vector<std::unique_ptr<NetClient>> clients;
  for (int c = 0; c < kConns; ++c) clients.push_back(Connect());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(clients[i % kConns]->SendRequest(lines[i]));
  }
  // Let the load get genuinely mid-flight: everything admitted, some
  // (but not necessarily all) completed.
  EXPECT_TRUE(PumpUntil([&] {
    return server_->stats().admitted == kRequests &&
           server_->stats().completed >= 2;
  }));
  server_.reset();  // kill -9

  // Restart on the same journal; clients reconnect and resend all.
  Start(JournaledServeOptions(dir), FastNetOptions());
  clients.clear();
  for (int c = 0; c < kConns; ++c) clients.push_back(Connect());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(clients[i % kConns]->SendRequest(lines[i]));
  }
  for (int i = 0; i < kRequests; ++i) {
    Frame frame;
    ASSERT_EQ(PumpRecv(clients[i % kConns].get(), &frame),
              NetClient::RecvResult::kFrame)
        << "request " << i;
    ASSERT_EQ(frame.type, FrameType::kResult) << frame.payload;
    EXPECT_EQ(frame.payload, golden[i]) << "request " << i;
  }
  // Completed-before-crash requests came from the journal cache or were
  // reattached to their recovered evaluation — never re-admitted.
  EXPECT_GT(server_->stats().journal_hits + server_->stats().reattached, 0u);
}

TEST_F(NetFixture, DrainThenRestartServesFromJournalWithoutRecompute) {
  // SIGTERM drain flushes the journal before exit 0; the restarted
  // daemon then serves the same id straight from the journal cache:
  // byte-identical bytes, zero admissions, zero workers.
  const std::string program = WriteProgram("drainrestart");
  const std::string dir = JournalDir("drainrestart");
  const std::string line = RequestLine("dr1", program);

  Start(JournaledServeOptions(dir), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendRequest(line));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  const std::string first = frame.payload;

  server_->RequestDrain();
  client.reset();
  EXPECT_TRUE(PumpUntil([&] { return !server_->PollOnce(1); }));
  server_.reset();

  Start(JournaledServeOptions(dir), FastNetOptions());
  auto again = Connect();
  ASSERT_TRUE(again->SendRequest(line));
  ASSERT_EQ(PumpRecv(again.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, first);
  EXPECT_EQ(server_->stats().journal_hits, 1u);
  EXPECT_EQ(server_->stats().admitted, 0u);
}

TEST_F(NetFixture, DuplicateIdServedFromJournalNotAWorker) {
  // Idempotent replay inside one daemon lifetime: a resend of an id
  // that already completed answers from the journal-backed cache —
  // byte-identical, no second admission. An id reused for a DIFFERENT
  // request is rejected as a bad request instead.
  const std::string program = WriteProgram("dupid");
  const std::string dir = JournalDir("dupid");
  const std::string line = RequestLine("dup1", program);

  Start(JournaledServeOptions(dir), FastNetOptions());
  auto client = Connect();
  ASSERT_TRUE(client->SendRequest(line));
  Frame frame;
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  const std::string first = frame.payload;

  ASSERT_TRUE(client->SendRequest(line));
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, first);
  EXPECT_EQ(server_->stats().journal_hits, 1u);
  EXPECT_EQ(server_->stats().admitted, 1u);

  ASSERT_TRUE(client->SendRequest(line + " max_facts=77"));
  ASSERT_EQ(PumpRecv(client.get(), &frame), NetClient::RecvResult::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  std::string code;
  SplitErrorPayload(frame.payload, &code, nullptr);
  EXPECT_EQ(code, "BAD_REQUEST");
}

TEST_F(NetFixture, FdExhaustionShedsWithBackoffAndRecovers) {
  // accept4 failing with EMFILE must not melt into a hot accept loop:
  // the listener is unregistered with backoff and re-armed as soon as a
  // connection close frees an fd — at which point the queued connection
  // is accepted and served normally.
  NetServerOptions net = FastNetOptions();
  net.fd_limit_for_test = 2;
  net.accept_backoff_ms = 30.0;
  Start(FastServeOptions(), net);

  auto c1 = Connect();
  auto c2 = Connect();
  EXPECT_EQ(server_->connections(), 2u);

  // The third connect lands in the listen backlog; the server's accept
  // attempt trips the (simulated) EMFILE and pauses the listener.
  NetClient c3;
  std::string error;
  ASSERT_TRUE(c3.Connect("127.0.0.1", server_->port(), 2000, &error)) << error;
  EXPECT_TRUE(PumpUntil([&] { return server_->stats().fd_exhausted > 0; }));
  EXPECT_EQ(server_->connections(), 2u);

  // Freeing one fd re-arms the listener; c3 gets accepted and served.
  c1.reset();
  EXPECT_TRUE(PumpUntil([&] {
    server_->PollOnce(1);
    return server_->stats().accepted == 3;
  }));
  ASSERT_TRUE(c3.SendFrame(FrameType::kPing, "still-there"));
  Frame frame;
  ASSERT_EQ(PumpRecv(&c3, &frame), NetClient::RecvResult::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.payload, "still-there");
}

}  // namespace
}  // namespace gqe
