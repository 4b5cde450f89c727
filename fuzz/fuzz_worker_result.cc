// libFuzzer harness for the serve worker's result blob
// (serve/worker.h): the bytes a forked worker writes to its result pipe,
// which the supervisor decodes and the journal stores. Two properties:
//
//  1. DecodeWorkerResult never crashes and never allocates toward a
//     hostile string length; whatever it accepts has a status in range
//     and strings no longer than the input.
//
//  2. Round-trip fidelity: a result built from fuzzer-chosen field
//     bytes encodes and decodes back field for field, and every strict
//     prefix of the encoding is rejected (a torn pipe read is never
//     mistaken for a result).
//
// Build (clang required for the fuzzer runtime):
//   cmake -B build-fuzz -S . -DGQE_FUZZ=ON -DCMAKE_CXX_COMPILER=clang++
//   cmake --build build-fuzz -j
//   ./build-fuzz/fuzz/fuzz_worker_result -max_total_time=30 fuzz/corpus-worker-result

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/worker.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // Property 1: arbitrary bytes.
  {
    gqe::WorkerResult result;
    if (gqe::DecodeWorkerResult(bytes, &result).ok()) {
      if (result.status > gqe::Status::kCancelled) __builtin_trap();
      if (result.id.size() + result.method.size() + result.witness.size() >
          size) {
        __builtin_trap();
      }
    }
  }

  // Property 2: fuzzer-built results round-trip whole; prefixes do not.
  if (size < 4) return 0;
  const uint8_t knob0 = data[0];
  const uint8_t knob1 = data[1];
  gqe::WorkerResult in;
  in.id = std::string(bytes.substr(0, size / 3));
  in.method = std::string(bytes.substr(size / 3, size / 3));
  in.witness = std::string(bytes.substr(2 * (size / 3)));
  in.status = static_cast<gqe::Status>(
      knob0 % (static_cast<int>(gqe::Status::kCancelled) + 1));
  in.exact = (knob1 & 1) != 0;
  in.degraded = (knob1 & 2) != 0;
  in.resumed = (knob1 & 4) != 0;
  in.answer_count = knob0 * 257u + knob1;
  in.answer_crc = static_cast<uint32_t>(size) * 2654435761u;
  in.facts = size;
  in.rounds_completed = knob1;
  in.resume_generation = knob0;
  in.eval_ms = knob0;  // whole milliseconds survive the microsecond field

  const std::string encoded = gqe::EncodeWorkerResult(in);
  gqe::WorkerResult out;
  if (!gqe::DecodeWorkerResult(encoded, &out).ok()) __builtin_trap();
  if (out.id != in.id || out.method != in.method ||
      out.witness != in.witness || out.status != in.status ||
      out.exact != in.exact || out.degraded != in.degraded ||
      out.resumed != in.resumed || out.answer_count != in.answer_count ||
      out.answer_crc != in.answer_crc || out.facts != in.facts ||
      out.rounds_completed != in.rounds_completed ||
      out.resume_generation != in.resume_generation ||
      out.eval_ms != in.eval_ms) {
    __builtin_trap();
  }
  const size_t cut = (static_cast<size_t>(knob0) << 8 | knob1) % encoded.size();
  gqe::WorkerResult torn;
  if (gqe::DecodeWorkerResult(std::string_view(encoded).substr(0, cut), &torn)
          .ok()) {
    __builtin_trap();
  }
  return 0;
}
