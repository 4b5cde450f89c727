#include "chase/checkpoint.h"

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace gqe {

namespace {

constexpr std::string_view kSnapshotPrefix = "chase-";
constexpr std::string_view kSnapshotSuffix = ".snap";

}  // namespace

std::string EncodeChaseSnapshot(const ChaseCheckpointState& state,
                                uint32_t fingerprint) {
  BinaryWriter writer;
  writer.WriteU32(fingerprint);
  EncodeInterner(&writer);
  writer.WriteU32(state.next_null_id);
  writer.WriteU64(state.rounds_completed);
  writer.WriteU64(state.delta_start);
  writer.WriteU64(state.triggers_fired);
  writer.WriteI32(state.max_level_built);
  writer.WriteBool(state.complete);
  EncodeAtomVector(state.atoms, &writer);
  writer.WriteU64(state.levels.size());
  for (int32_t level : state.levels) writer.WriteI32(level);
  writer.WriteU64(state.fired.size());
  for (const std::vector<uint32_t>& key : state.fired) {
    writer.WriteU64(key.size());
    for (uint32_t word : key) writer.WriteU32(word);
  }
  writer.WriteBool(state.witness_collected);
  writer.WriteU64(state.fired_nulls.size());
  for (const std::vector<uint32_t>& nulls : state.fired_nulls) {
    writer.WriteU64(nulls.size());
    for (uint32_t id : nulls) writer.WriteU32(id);
  }
  // Retired carried-trigger count (a trigger fires in the round that
  // finds it): kept zero so the byte layout stays unchanged.
  writer.WriteU64(0);
  return writer.Take();
}

SnapshotStatus DecodeChaseSnapshot(std::string_view payload,
                                   ChaseCheckpointState* state,
                                   uint32_t* fingerprint) {
  BinaryReader reader(payload);
  uint32_t stored_fingerprint = 0;
  if (!reader.ReadU32(&stored_fingerprint)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot fingerprint cut short");
  }
  SnapshotStatus status = DecodeInterner(&reader);
  if (!status.ok()) return status;

  ChaseCheckpointState decoded;
  uint64_t level_count = 0;
  if (!reader.ReadU32(&decoded.next_null_id) ||
      !reader.ReadU64(&decoded.rounds_completed) ||
      !reader.ReadU64(&decoded.delta_start) ||
      !reader.ReadU64(&decoded.triggers_fired) ||
      !reader.ReadI32(&decoded.max_level_built) ||
      !reader.ReadBool(&decoded.complete)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot header cut short");
  }
  status = DecodeAtomVector(&reader, &decoded.atoms);
  if (!status.ok()) return status;
  if (!reader.ReadU64(&level_count)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot level count cut short");
  }
  if (level_count != decoded.atoms.size()) {
    return SnapshotStatus::Fail(
        SnapshotError::kFormatError,
        "chase snapshot has " + std::to_string(level_count) +
            " levels for " + std::to_string(decoded.atoms.size()) + " facts");
  }
  decoded.levels.reserve(decoded.atoms.size());
  for (uint64_t i = 0; i < level_count; ++i) {
    int32_t level = 0;
    if (!reader.ReadI32(&level)) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "chase snapshot levels cut short");
    }
    decoded.levels.push_back(level);
  }

  uint64_t fired_count = 0;
  if (!reader.ReadU64(&fired_count)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot fired count cut short");
  }
  for (uint64_t i = 0; i < fired_count; ++i) {
    uint64_t key_size = 0;
    if (!reader.ReadU64(&key_size) ||
        key_size * sizeof(uint32_t) > reader.remaining()) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "chase snapshot fired keys cut short");
    }
    std::vector<uint32_t> key;
    key.reserve(key_size);
    for (uint64_t w = 0; w < key_size; ++w) {
      uint32_t word = 0;
      reader.ReadU32(&word);
      key.push_back(word);
    }
    decoded.fired.push_back(std::move(key));
  }

  uint64_t null_list_count = 0;
  if (!reader.ReadBool(&decoded.witness_collected) ||
      !reader.ReadU64(&null_list_count) ||
      null_list_count > reader.remaining()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot null log cut short");
  }
  if (decoded.witness_collected && null_list_count != fired_count) {
    return SnapshotStatus::Fail(
        SnapshotError::kFormatError,
        "chase snapshot null log has " + std::to_string(null_list_count) +
            " entries for " + std::to_string(fired_count) +
            " fired triggers");
  }
  for (uint64_t i = 0; i < null_list_count; ++i) {
    uint64_t null_count = 0;
    if (!reader.ReadU64(&null_count) ||
        null_count * sizeof(uint32_t) > reader.remaining()) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "chase snapshot null draws cut short");
    }
    std::vector<uint32_t> nulls;
    nulls.reserve(null_count);
    for (uint64_t n = 0; n < null_count; ++n) {
      uint32_t id = 0;
      reader.ReadU32(&id);
      nulls.push_back(id);
    }
    decoded.fired_nulls.push_back(std::move(nulls));
  }

  uint64_t retired_count = 0;
  if (!reader.ReadU64(&retired_count) || retired_count != 0) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot carries triggers");
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "chase snapshot has trailing bytes");
  }
  *state = std::move(decoded);
  if (fingerprint != nullptr) *fingerprint = stored_fingerprint;
  return SnapshotStatus::Ok();
}

uint32_t ChaseWorkloadFingerprint(const Instance& db, const TgdSet& tgds,
                                  const ChaseOptions& options) {
  // Only the inputs that determine the chase *output* participate:
  // budgets may differ between the checkpointed run and the resuming
  // run.
  BinaryWriter writer;
  EncodeInstance(db, &writer);
  writer.WriteString(TgdSetToString(tgds));
  writer.WriteBool(options.restricted);
  // Retired discovery-mode byte (the engine is always semi-naive): kept
  // constant so existing checkpoints keep their fingerprints.
  writer.WriteBool(true);
  writer.WriteI32(options.max_level);
  return Crc32(writer.buffer());
}

CheckpointDir::CheckpointDir(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A failure here surfaces as kIoError on the first Save.
}

std::string CheckpointDir::GenerationPath(uint64_t generation) const {
  return dir_ + "/" + std::string(kSnapshotPrefix) +
         std::to_string(generation) + std::string(kSnapshotSuffix);
}

std::vector<uint64_t> CheckpointDir::Generations() const {
  return ListNumberedFiles(dir_, kSnapshotPrefix, kSnapshotSuffix);
}

SnapshotStatus CheckpointDir::Save(const ChaseCheckpointState& state,
                                   uint32_t fingerprint) {
  const uint64_t saved = state.rounds_completed;
  std::vector<uint64_t> generations = Generations();
  std::error_code ec;
  while (!generations.empty() && generations.back() > saved) {
    std::filesystem::remove(GenerationPath(generations.back()), ec);
    generations.pop_back();
  }
  SnapshotStatus status = WriteFileAtomic(
      GenerationPath(saved),
      WrapSnapshot(kSnapshotKindChase,
                   EncodeChaseSnapshot(state, fingerprint)));
  if (!status.ok()) return status;
  if (generations.empty() || generations.back() != saved) {
    generations.push_back(saved);
  }
  for (size_t i = 0; i + kKeepGenerations < generations.size(); ++i) {
    std::filesystem::remove(GenerationPath(generations[i]), ec);
  }
  return SnapshotStatus::Ok();
}

SnapshotStatus CheckpointDir::LoadLatest(ChaseCheckpointState* state,
                                         uint32_t fingerprint,
                                         uint64_t* generation, int* skipped) {
  if (skipped != nullptr) *skipped = 0;
  const std::vector<uint64_t> generations = Generations();
  SnapshotStatus last = SnapshotStatus::Fail(
      SnapshotError::kNotFound, "no snapshot in '" + dir_ + "'");
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string path = GenerationPath(*it);
    std::string bytes;
    SnapshotStatus status = ReadFileBytes(path, &bytes);
    std::string_view payload;
    if (status.ok()) {
      status = UnwrapSnapshot(bytes, kSnapshotKindChase, &payload);
    }
    // The fingerprint leads the payload: compare it before
    // DecodeChaseSnapshot replays the interner section.
    uint32_t stored = 0;
    if (status.ok() && BinaryReader(payload).ReadU32(&stored) &&
        stored != fingerprint) {
      return SnapshotStatus::Fail(
          SnapshotError::kFormatError,
          "'" + dir_ + "' holds snapshots of a different workload " +
              "(fingerprint " + std::to_string(stored) + ", expected " +
              std::to_string(fingerprint) + ")");
    }
    if (status.ok()) {
      status = DecodeChaseSnapshot(payload, state, nullptr);
    }
    if (status.ok()) {
      if (generation != nullptr) *generation = *it;
      return status;
    }
    status.message = path + ": " + status.message;
    last = std::move(status);
    if (skipped != nullptr) ++*skipped;
  }
  return last;
}

DirectoryCheckpointSink::DirectoryCheckpointSink(std::string dir,
                                                uint32_t fingerprint)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {}

void DirectoryCheckpointSink::Write(const ChaseCheckpointState& state) {
  last_status_ = dir_.Save(state, fingerprint_);
  ++writes_;
  if (!last_status_.ok()) ++failed_writes_;
}

ChaseResult ResumeChase(const std::string& checkpoint_dir, const Instance& db,
                        const TgdSet& tgds, const ChaseOptions& options,
                        ResumeInfo* info) {
  ResumeInfo local_info;
  ResumeInfo* out = info != nullptr ? info : &local_info;
  *out = ResumeInfo{};

  const uint32_t fingerprint = ChaseWorkloadFingerprint(db, tgds, options);
  CheckpointDir dir(checkpoint_dir);

  ChaseCheckpointState state;
  uint64_t generation = 0;
  int skipped = 0;
  const SnapshotStatus load =
      dir.LoadLatest(&state, fingerprint, &generation, &skipped);
  out->load_status = load;
  out->skipped_generations = skipped;

  DirectoryCheckpointSink sink(checkpoint_dir, fingerprint);
  ChaseOptions run_options = options;
  run_options.checkpoint_sink = &sink;

  if (load.ok()) {
    out->resumed = true;
    out->generation = generation;
    out->resumed_complete = state.complete;
    return ResumeChaseFromState(state, tgds, run_options);
  }
  return Chase(db, tgds, run_options);
}

}  // namespace gqe
