#include "net/frame.h"

#include <errno.h>
#include <unistd.h>

#include "base/serialize.h"

namespace gqe {

namespace {

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kRequest) &&
         type <= static_cast<uint8_t>(FrameType::kStorageReply);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kRequest:
      return "request";
    case FrameType::kResult:
      return "result";
    case FrameType::kError:
      return "error";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kStorageCommand:
      return "storage-command";
    case FrameType::kStorageReply:
      return "storage-reply";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  BinaryWriter header;
  header.WriteU16(kFrameMagic);
  header.WriteU8(kFrameVersion);
  header.WriteU8(static_cast<uint8_t>(type));
  header.WriteU32(static_cast<uint32_t>(payload.size()));
  header.WriteU32(Crc32(payload));
  std::string out = header.Take();
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (failed_) return;
  // Compact before growing: everything consumed as frames is dead weight.
  if (consumed_ > 0 && (consumed_ >= buffer_.size() || consumed_ > 4096)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameDecoder::Result FrameDecoder::Fail(std::string failure,
                                         std::string* error) {
  failed_ = true;
  failure_ = std::move(failure);
  if (error != nullptr) *error = failure_;
  return Result::kError;
}

FrameDecoder::Result FrameDecoder::Next(Frame* out, std::string* error) {
  if (failed_) {
    if (error != nullptr) *error = failure_;
    return Result::kError;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) return Result::kNeedMore;

  BinaryReader header(
      std::string_view(buffer_.data() + consumed_, kFrameHeaderSize));
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint32_t length = 0;
  uint32_t expected_crc = 0;
  header.ReadU16(&magic);
  header.ReadU8(&version);
  header.ReadU8(&type);
  header.ReadU32(&length);
  header.ReadU32(&expected_crc);
  if (magic != kFrameMagic) return Fail("bad frame magic", error);
  if (version != kFrameVersion) {
    return Fail("unsupported frame version " + std::to_string(version),
                error);
  }
  if (!KnownFrameType(type)) {
    return Fail("unknown frame type " + std::to_string(type), error);
  }
  // Checked against the header alone: a hostile length prefix is
  // rejected before any payload bytes are buffered toward it.
  if (length > max_payload_) {
    return Fail("frame payload length " + std::to_string(length) +
                    " exceeds cap " + std::to_string(max_payload_),
                error);
  }
  if (available < kFrameHeaderSize + length) return Result::kNeedMore;

  std::string_view payload(buffer_.data() + consumed_ + kFrameHeaderSize,
                           length);
  if (Crc32(payload) != expected_crc) {
    return Fail("frame payload checksum mismatch", error);
  }

  out->type = static_cast<FrameType>(type);
  out->payload.assign(payload.data(), payload.size());
  consumed_ += kFrameHeaderSize + length;
  return Result::kFrame;
}

bool ReadFrameBlocking(int fd, FrameDecoder* decoder, Frame* frame) {
  char chunk[64 * 1024];
  for (;;) {
    switch (decoder->Next(frame, nullptr)) {
      case FrameDecoder::Result::kFrame:
        return true;
      case FrameDecoder::Result::kError:
        return false;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      decoder->Feed(std::string_view(chunk, static_cast<size_t>(n)));
    } else if (n == 0 || errno != EINTR) {
      return false;  // EOF or hard error
    }
  }
}

std::string MakeErrorPayload(std::string_view code, std::string_view detail) {
  std::string payload(code);
  if (!detail.empty()) {
    payload.push_back(' ');
    payload.append(detail);
  }
  return payload;
}

void SplitErrorPayload(std::string_view payload, std::string* code,
                       std::string* detail) {
  const size_t space = payload.find(' ');
  if (space == std::string_view::npos) {
    if (code != nullptr) code->assign(payload);
    if (detail != nullptr) detail->clear();
    return;
  }
  if (code != nullptr) code->assign(payload.substr(0, space));
  if (detail != nullptr) detail->assign(payload.substr(space + 1));
}

}  // namespace gqe
