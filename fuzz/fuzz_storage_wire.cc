// libFuzzer harness for the storage-shard pipe messages
// (shard/storage_wire.h) as they arrive: net/frame.h frames whose
// payloads are storage commands and replies. Properties under arbitrary
// bytes and arbitrary read fragmentation:
//
//  1. Neither the frame decoder nor the command/reply decoders crash or
//     allocate toward a hostile count; a count the remaining payload
//     cannot hold is rejected before anything is reserved.
//  2. Whatever a decoder accepts is canonical after one re-encode:
//     Encode(Decode(payload)) decodes again and re-encodes to the same
//     bytes, so no accepted message is ambiguous on the wire.
//
// The first input byte is a knob: bit 0 picks the mode, the other bits
// the fragmentation step. Mode 0 feeds the rest to a FrameDecoder and
// hands each kStorageCommand / kStorageReply payload to its decoder (the
// path a real pipe takes). Mode 1 hands the rest to both decoders as a
// bare payload, so mutations reach the decoders without first having to
// match a frame CRC.
//
// The seeds (fuzz/corpus-storage-wire) encode atoms over the predicates
// and constants RegisterSeedVocabulary interns, by id; the harness
// interns them first, in the same order, so a fresh process gives them
// the seeds' ids and decoding reaches the interner checks.
//
// Build (clang required for the fuzzer runtime):
//   cmake -B build-fuzz -S . -DGQE_FUZZ=ON -DCMAKE_CXX_COMPILER=clang++
//   cmake --build build-fuzz -j
//   ./build-fuzz/fuzz/fuzz_storage_wire -max_total_time=30 fuzz/corpus-storage-wire

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/schema.h"
#include "base/term.h"
#include "net/frame.h"
#include "shard/storage_wire.h"

namespace {

// Small cap so oversized-length handling is hit constantly.
constexpr size_t kFuzzPayloadCap = 1 << 16;

void RegisterSeedVocabulary() {
  static const bool registered = [] {
    gqe::predicates::Intern("wire_e", 2);
    gqe::predicates::Intern("wire_p", 1);
    gqe::predicates::Intern("wire_t", 3);
    gqe::Term::Constant("wire_a");
    gqe::Term::Constant("wire_b");
    gqe::Term::Constant("wire_c");
    return true;
  }();
  (void)registered;
}

template <typename Message>
void CheckCanonical(std::string_view payload,
                    gqe::SnapshotStatus (*decode)(std::string_view, Message*),
                    std::string (*encode)(const Message&)) {
  Message first;
  if (!decode(payload, &first).ok()) return;
  const std::string once = encode(first);
  Message second;
  if (!decode(once, &second).ok()) __builtin_trap();
  if (encode(second) != once) __builtin_trap();
}

void CheckCommand(std::string_view payload) {
  CheckCanonical<gqe::StorageCommand>(payload, gqe::DecodeStorageCommand,
                                      gqe::EncodeStorageCommand);
}

void CheckReply(std::string_view payload) {
  CheckCanonical<gqe::StorageReply>(payload, gqe::DecodeStorageReply,
                                    gqe::EncodeStorageReply);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RegisterSeedVocabulary();
  if (size < 2) return 0;
  const bool bare_payload = (data[0] & 1) != 0;
  const size_t step = static_cast<size_t>(data[0] >> 1) + 1;  // 1..128
  const std::string_view bytes(reinterpret_cast<const char*>(data + 1),
                               size - 1);

  if (bare_payload) {
    CheckCommand(bytes);
    CheckReply(bytes);
    return 0;
  }

  gqe::FrameDecoder decoder(kFuzzPayloadCap);
  for (size_t off = 0; off < bytes.size(); off += step) {
    decoder.Feed(bytes.substr(off, step));
  }
  gqe::Frame frame;
  std::string error;
  for (;;) {
    const gqe::FrameDecoder::Result result = decoder.Next(&frame, &error);
    if (result != gqe::FrameDecoder::Result::kFrame) break;
    if (frame.payload.size() > kFuzzPayloadCap) __builtin_trap();
    if (frame.type == gqe::FrameType::kStorageCommand) {
      CheckCommand(frame.payload);
    } else if (frame.type == gqe::FrameType::kStorageReply) {
      CheckReply(frame.payload);
    }
  }
  return 0;
}
