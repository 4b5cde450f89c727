// Replays a libFuzzer harness without libFuzzer, so the seed corpora run
// in the ordinary test suite with any compiler. Every regular file of the
// corpus directory is fed to LLVMFuzzerTestOneInput, followed by a
// fixed-seed set of mutants of it: every eighth-length truncation and
// kFlipsPerFile single-bit flips. A harness reports a bug by trapping, so
// a clean exit means every input passed.
//
// Each corpus file and its mutants run in a child process of their own.
// Some harnesses feed process-global state (the snapshot decoders intern
// names into the global interner), so without the fork whether an input
// is accepted could depend on the files replayed before it. A failure
// names its corpus file and reproduces by replaying that file alone; the
// exit code is the child's (128 + signal when it died of one).
//
// Built per harness when GQE_FUZZ is off (fuzz/CMakeLists.txt):
//   ./build/fuzz/fuzz_replay_parser fuzz/corpus

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

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
    std::vector<std::string> batch = {bytes};
    for (int k = 0; k < kTruncations; ++k) {
      batch.push_back(bytes.substr(0, bytes.size() * k / kTruncations));
    }
    for (int f = 0; f < kFlipsPerFile && !bytes.empty(); ++f) {
      std::string flipped = bytes;
      const size_t bit = rng() % (flipped.size() * 8);
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1u << (bit % 8)));
      batch.push_back(std::move(flipped));
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 2;
    }
    if (pid == 0) {
      for (const std::string& input : batch) Run(input);
      std::exit(0);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
      std::perror("waitpid");
      return 2;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "corpus file %s failed\n", path.c_str());
      return WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                 : WEXITSTATUS(status);
    }
    inputs += batch.size();
  }
  std::printf("replayed %zu inputs from %zu corpus files\n", inputs,
              files.size());
  return 0;
}
