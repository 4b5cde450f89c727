// Replays a libFuzzer harness without libFuzzer, so the seed corpora run
// in the ordinary test suite with any compiler. Every regular file of the
// corpus directory is fed to LLVMFuzzerTestOneInput, followed by a
// fixed-seed set of mutants of it: every eighth-length truncation and
// kFlipsPerFile single-bit flips. A harness reports a bug by trapping, so
// a clean exit means every input passed.
//
// Built per harness when GQE_FUZZ is off (fuzz/CMakeLists.txt):
//   ./build/fuzz/fuzz_replay_parser fuzz/corpus

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

constexpr int kTruncations = 8;
constexpr int kFlipsPerFile = 64;
constexpr uint32_t kSeed = 0x5eed;

void Run(const std::string& bytes) {
  // A copy of exactly `size` bytes, so reads past the end are out of
  // bounds for ASan instead of landing in the string's spare capacity.
  const std::vector<uint8_t> input(bytes.begin(), bytes.end());
  LLVMFuzzerTestOneInput(input.data(), input.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s CORPUS_DIR\n", argv[0]);
    return 2;
  }
  std::vector<std::filesystem::path> files;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator(argv[1], error)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  if (error || files.empty()) {
    std::fprintf(stderr, "no corpus files in %s\n", argv[1]);
    return 2;
  }
  std::sort(files.begin(), files.end());
  std::mt19937 rng(kSeed);
  size_t inputs = 0;
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Run(bytes);
    ++inputs;
    for (int k = 0; k < kTruncations; ++k) {
      Run(bytes.substr(0, bytes.size() * k / kTruncations));
      ++inputs;
    }
    for (int f = 0; f < kFlipsPerFile && !bytes.empty(); ++f) {
      std::string flipped = bytes;
      const size_t bit = rng() % (flipped.size() * 8);
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1u << (bit % 8)));
      Run(flipped);
      ++inputs;
    }
  }
  std::printf("replayed %zu inputs from %zu corpus files\n", inputs,
              files.size());
  return 0;
}
