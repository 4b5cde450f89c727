// libFuzzer harness for the restart boundary: bytes a process reads back
// from an earlier one. Chase checkpoint files (chase/checkpoint.h) are
// decoded when a durable chase resumes; evaluation witnesses
// (verify/witness.h) are decoded when journal replay re-verifies a
// stored result under --verify. Two properties:
//
//  1. Decode is total: no input crashes a decoder or makes it allocate
//     toward a count the input cannot hold.
//  2. Whatever a decoder accepts re-encodes to bytes that decode again,
//     to an equal state. Equality is checked as one more re-encode
//     giving the same bytes, since both encoders write every field.
//     Byte equality with the input is too strong for snapshots:
//     DecodeChaseSnapshot replays the stored interner into the global
//     one, and the re-encode writes the whole global interner.
//
// The first input byte picks the decoder, modulo 3:
//   0  DecodeEvalWitnessFromString on the rest;
//   1  UnwrapSnapshot (kind 1) + DecodeChaseSnapshot, as a checkpoint
//      file is read;
//   2  DecodeChaseSnapshot on the rest as a bare payload, so mutations
//      reach the decoder without first having to match the envelope CRC.
//
// The seeds (fuzz/corpus-snapshot) were written by the real encoders in
// a process that interned nothing before the seed program, so their
// interner sections replay cleanly in a fresh harness process.
// seed_chase_mid and seed_chase_payload hold one trigger in the retired
// carried-trigger section, so they reach the decoder's reject path;
// seed_chase_mid_encoded, a round-2 snapshot of a chase that saturates
// after four rounds, keeps a mid-run snapshot on the accept-and-re-encode
// path.
//
// The harness is not hermetic. The chase decoder interns names into the
// process-global interner, also from inputs it goes on to reject (say,
// with kInternerConflict), so whether an input is accepted, and how long
// its re-encode is, depends on the inputs run before it in the same
// process, and the interner grows over a long libFuzzer run. The ctest
// replay (replay_main.cc) runs each corpus file and its mutants in a
// fresh process. A libFuzzer crash may not reproduce from its input
// alone: reproduce it by replaying the whole corpus and then the input.
//
// Build (clang required for the fuzzer runtime):
//   cmake -B build-fuzz -S . -DGQE_FUZZ=ON -DCMAKE_CXX_COMPILER=clang++
//   cmake --build build-fuzz -j
//   ./build-fuzz/fuzz/fuzz_snapshot -max_total_time=30 fuzz/corpus-snapshot

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/serialize.h"
#include "chase/checkpoint.h"
#include "verify/witness.h"

namespace {

void CheckChaseSnapshot(std::string_view payload) {
  gqe::ChaseCheckpointState state;
  uint32_t fingerprint = 0;
  if (!gqe::DecodeChaseSnapshot(payload, &state, &fingerprint).ok()) return;
  const std::string encoded = gqe::EncodeChaseSnapshot(state, fingerprint);
  gqe::ChaseCheckpointState again;
  uint32_t again_fingerprint = 0;
  if (!gqe::DecodeChaseSnapshot(encoded, &again, &again_fingerprint).ok() ||
      again_fingerprint != fingerprint ||
      gqe::EncodeChaseSnapshot(again, again_fingerprint) != encoded) {
    __builtin_trap();
  }
}

void CheckEvalWitness(std::string_view bytes) {
  gqe::EvalWitness witness;
  if (!gqe::DecodeEvalWitnessFromString(bytes, &witness).ok()) return;
  const std::string encoded = gqe::EncodeEvalWitnessToString(witness);
  gqe::EvalWitness again;
  if (!gqe::DecodeEvalWitnessFromString(encoded, &again).ok() ||
      again.kind != witness.kind || again.method != witness.method ||
      again.certified != witness.certified ||
      again.derivation != witness.derivation ||
      again.answers != witness.answers ||
      gqe::EncodeEvalWitnessToString(again) != encoded) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const std::string_view rest(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  switch (data[0] % 3) {
    case 0:
      CheckEvalWitness(rest);
      break;
    case 1: {
      std::string_view payload;
      if (gqe::UnwrapSnapshot(rest, gqe::kSnapshotKindChase, &payload).ok()) {
        CheckChaseSnapshot(payload);
      }
      break;
    }
    case 2:
      CheckChaseSnapshot(rest);
      break;
  }
  return 0;
}
