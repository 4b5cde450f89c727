#ifndef GQE_NET_FRAME_H_
#define GQE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gqe {

/// The one byte-stream framing: every message on a serve connection and
/// on a storage-shard worker pipe is one length-prefixed, checksummed
/// frame. On serve connections the payloads reuse the serve text codecs
/// — a request frame carries one manifest line (serve/request.h syntax)
/// and a result frame carries the corresponding deterministic "result:"
/// line — so a network run is byte-comparable against a file-manifest
/// run of the same requests. On shard pipes a frame carries one binary
/// storage command or reply (shard/storage_wire.h).
///
/// Layout (little-endian, 12-byte header):
///   u16 magic   0x5147 ("GQ")
///   u8  version kFrameVersion
///   u8  type    FrameType
///   u32 length  payload byte count (bounded; see FrameDecoder)
///   u32 crc32   CRC-32 of the payload bytes
///
/// The CRC turns a bit-flipped frame into a detected protocol error
/// instead of a silently corrupted request or answer; the length bound
/// turns an adversarial/oversized prefix into a structured rejection
/// instead of an allocation.
enum class FrameType : uint8_t {
  /// Client -> server: one manifest request line (text).
  kRequest = 1,
  /// Server -> client: the request's deterministic "result:" line, byte-
  /// identical to what the file-manifest path prints for the same
  /// request (including the trailing newline).
  kResult = 2,
  /// Server -> client: structured failure. Payload text is
  /// "CODE detail..." where CODE is one of OVERLOADED, SHUTTING_DOWN,
  /// BAD_REQUEST, PROTOCOL, TIMEOUT. Request-scoped codes (OVERLOADED,
  /// SHUTTING_DOWN, BAD_REQUEST) keep the connection open; stream-scoped
  /// codes (PROTOCOL, TIMEOUT) are followed by a close because the byte
  /// stream can no longer be trusted.
  kError = 3,
  /// Liveness probe; the server answers kPong with the same payload.
  kPing = 4,
  kPong = 5,
  /// Storage-shard pipes only (shard/storage_wire.h): coordinator ->
  /// worker command, worker -> coordinator reply. The serve front end
  /// rejects both with PROTOCOL.
  kStorageCommand = 6,
  kStorageReply = 7,
};

const char* FrameTypeName(FrameType type);

constexpr uint16_t kFrameMagic = 0x5147;  // "GQ" little-endian
constexpr uint8_t kFrameVersion = 1;
constexpr size_t kFrameHeaderSize = 12;

/// Default per-frame payload cap. Request and result lines are well
/// under 4 KiB; 1 MiB leaves room for future batch payloads while
/// keeping a hostile length prefix from reserving real memory.
constexpr size_t kDefaultMaxFramePayload = 1 << 20;

struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

/// Encodes one frame (header + payload).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Incremental frame reassembler for a nonblocking byte stream. Feed it
/// whatever read() produced — single bytes, partial headers, several
/// frames at once — and pull complete frames out. After the first
/// kError the decoder stays failed: framing errors are not recoverable
/// mid-stream (the reader has lost byte alignment), the connection must
/// be torn down.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(std::string_view bytes);

  enum class Result {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // *out holds the next frame
    kError,     // stream is damaged; *error says how
  };

  /// Consumes and returns the next complete frame, if any. The length
  /// bound is enforced against the header alone, before any payload is
  /// buffered past the cap — an oversized prefix never allocates.
  Result Next(Frame* out, std::string* error);

  /// Bytes fed but not yet consumed as frames.
  size_t buffered() const { return buffer_.size() - consumed_; }

  /// True when a frame has started arriving (at least one byte) but is
  /// not yet complete — the slow-loris signal the per-connection read
  /// deadline keys off.
  bool mid_frame() const { return buffered() > 0; }

  bool failed() const { return failed_; }

 private:
  Result Fail(std::string failure, std::string* error);

  size_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;
  bool failed_ = false;
  std::string failure_;
};

/// Blocking read of the next frame from `fd` through `decoder` (which
/// keeps any bytes read past that frame for the next call). Returns
/// false on EOF, on a hard read error, or once the decoder has failed.
bool ReadFrameBlocking(int fd, FrameDecoder* decoder, Frame* frame);

/// Builds a kError payload: "CODE detail". `code` must be a bare token
/// (no spaces) so clients can split on the first space.
std::string MakeErrorPayload(std::string_view code, std::string_view detail);

/// Splits an error payload into code and detail.
void SplitErrorPayload(std::string_view payload, std::string* code,
                       std::string* detail);

}  // namespace gqe

#endif  // GQE_NET_FRAME_H_
