// libFuzzer harness for the network frame codec (net/frame.h). Two
// properties under arbitrary byte streams and arbitrary read
// fragmentation:
//
//  1. The decoder never crashes, never allocates past its payload cap,
//     and once failed stays failed (framing errors are not recoverable).
//  2. Round-trip fidelity: frames the decoder *does* produce from a
//     stream that begins with valid encodings are bit-identical to what
//     was encoded — the decoder must not fabricate or alter a frame.
//
// The input drives both at once: the first byte picks a fragmentation
// pattern, the rest is fed to a decoder twice — once raw (property 1),
// once re-encoded as a payload inside a valid frame and split at
// fuzzer-chosen points (property 2).
//
// Build (clang required for the fuzzer runtime):
//   cmake -B build-fuzz -S . -DGQE_FUZZ=ON -DCMAKE_CXX_COMPILER=clang++
//   cmake --build build-fuzz -j
//   ./build-fuzz/fuzz/fuzz_frame -max_total_time=30 fuzz/corpus-frame

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/frame.h"

namespace {

// Small cap so oversized-length handling is hit constantly and a cap
// violation would be a fast, loud allocation failure under ASan.
constexpr size_t kFuzzPayloadCap = 4096;

void FeedFragmented(gqe::FrameDecoder* decoder, std::string_view bytes,
                    size_t step) {
  if (step == 0) step = 1;
  for (size_t off = 0; off < bytes.size(); off += step) {
    const size_t n = bytes.size() - off < step ? bytes.size() - off : step;
    decoder->Feed(bytes.substr(off, n));
  }
}

void DrainAll(gqe::FrameDecoder* decoder) {
  gqe::Frame frame;
  std::string error;
  bool failed_seen = false;
  for (int i = 0; i < 1 << 16; ++i) {
    switch (decoder->Next(&frame, &error)) {
      case gqe::FrameDecoder::Result::kFrame:
        // A failed decoder must never produce another frame.
        if (failed_seen) __builtin_trap();
        if (frame.payload.size() > kFuzzPayloadCap) __builtin_trap();
        continue;
      case gqe::FrameDecoder::Result::kError:
        if (error.empty()) __builtin_trap();
        if (!decoder->failed()) __builtin_trap();
        failed_seen = true;
        continue;  // must stay kError forever; loop a few more times
      case gqe::FrameDecoder::Result::kNeedMore:
        if (failed_seen) __builtin_trap();  // sticky failure violated
        return;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  const size_t step = static_cast<size_t>(data[0]) + 1;  // 1..256
  const std::string_view bytes(reinterpret_cast<const char*>(data + 1),
                               size - 1);

  // Property 1: arbitrary bytes, arbitrary fragmentation.
  {
    gqe::FrameDecoder decoder(kFuzzPayloadCap);
    FeedFragmented(&decoder, bytes, step);
    DrainAll(&decoder);
  }

  // Property 2: the same bytes wrapped as payloads of valid frames must
  // decode back bit-identically no matter how the stream is split.
  {
    const std::string_view payload = bytes.substr(
        0, bytes.size() < kFuzzPayloadCap ? bytes.size() : kFuzzPayloadCap);
    const gqe::FrameType types[] = {gqe::FrameType::kRequest,
                                    gqe::FrameType::kResult,
                                    gqe::FrameType::kPing,
                                    gqe::FrameType::kStorageCommand,
                                    gqe::FrameType::kStorageReply};
    std::string stream;
    for (gqe::FrameType type : types) {
      stream += gqe::EncodeFrame(type, payload);
    }
    gqe::FrameDecoder decoder(kFuzzPayloadCap);
    FeedFragmented(&decoder, stream, step);
    gqe::Frame frame;
    std::string error;
    for (gqe::FrameType type : types) {
      if (decoder.Next(&frame, &error) != gqe::FrameDecoder::Result::kFrame) {
        __builtin_trap();  // a valid stream must always decode
      }
      if (frame.type != type || frame.payload != payload) __builtin_trap();
    }
    if (decoder.Next(&frame, &error) != gqe::FrameDecoder::Result::kNeedMore) {
      __builtin_trap();  // no trailing bytes were fed
    }
    if (decoder.mid_frame()) __builtin_trap();
  }
  return 0;
}
