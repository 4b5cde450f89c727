#include "shard/storage_wire.h"

#include <utility>

namespace gqe {

namespace {

// Minimum encoded bytes per claimed element, as kMinIndexBytes.
constexpr uint64_t kMinUnitBytes = 8 + 4 + 8 + 8;
constexpr uint64_t kMinGroupBytes = 4 + 8 + 8;

void EncodeUnits(const std::vector<ChaseDiscoveryUnit>& units,
                 BinaryWriter* writer) {
  writer->WriteU64(units.size());
  for (const ChaseDiscoveryUnit& unit : units) {
    writer->WriteU64(unit.tgd_index);
    writer->WriteI32(unit.anchor);
    writer->WriteU64(unit.delta_begin);
    writer->WriteU64(unit.delta_end);
  }
}

bool DecodeUnits(BinaryReader* reader, std::vector<ChaseDiscoveryUnit>* out) {
  uint64_t count = 0;
  if (!reader->ReadU64(&count)) return false;
  if (count > reader->remaining() / kMinUnitBytes + 1) return false;
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ChaseDiscoveryUnit unit;
    uint64_t tgd = 0;
    int32_t anchor = 0;
    reader->ReadU64(&tgd);
    reader->ReadI32(&anchor);
    uint64_t begin = 0;
    uint64_t end = 0;
    reader->ReadU64(&begin);
    if (!reader->ReadU64(&end)) return false;
    unit.tgd_index = tgd;
    unit.anchor = anchor;
    unit.delta_begin = begin;
    unit.delta_end = end;
    out->push_back(unit);
  }
  return true;
}

}  // namespace

std::string EncodeStorageCommand(const StorageCommand& command) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(command.type));
  writer.WriteU64(command.sequence);
  writer.WriteU64(command.boundary);
  writer.WriteU32(command.num_shards);
  writer.WriteI32(command.inject_fault);
  writer.WriteU64(command.delta_start);
  writer.WriteU64(command.delta_end);
  writer.WriteU64(command.seed_indexes.size());
  for (uint64_t index : command.seed_indexes) writer.WriteU64(index);
  EncodeAtomVector(command.seed_atoms, &writer);
  EncodeAtomVector(command.frontier, &writer);
  EncodeUnits(command.units, &writer);
  return writer.Take();
}

SnapshotStatus DecodeStorageCommand(std::string_view payload,
                                    StorageCommand* out) {
  BinaryReader reader(payload);
  StorageCommand command;
  uint32_t type = 0;
  reader.ReadU32(&type);
  reader.ReadU64(&command.sequence);
  reader.ReadU64(&command.boundary);
  reader.ReadU32(&command.num_shards);
  reader.ReadI32(&command.inject_fault);
  reader.ReadU64(&command.delta_start);
  uint64_t index_count = 0;
  reader.ReadU64(&command.delta_end);
  if (!reader.ReadU64(&index_count)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage command: truncated header");
  }
  if (type != static_cast<uint32_t>(StorageCommand::Type::kSeed) &&
      type != static_cast<uint32_t>(StorageCommand::Type::kDelta) &&
      type != static_cast<uint32_t>(StorageCommand::Type::kDiscover)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: unknown type");
  }
  command.type = static_cast<StorageCommand::Type>(type);
  if (index_count > reader.remaining() / kMinIndexBytes + 1) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: absurd index count");
  }
  command.seed_indexes.reserve(index_count);
  for (uint64_t i = 0; i < index_count; ++i) {
    uint64_t index = 0;
    if (!reader.ReadU64(&index)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage command: truncated indexes");
    }
    command.seed_indexes.push_back(index);
  }
  SnapshotStatus status = DecodeAtomVector(&reader, &command.seed_atoms);
  if (!status.ok()) return status;
  status = DecodeAtomVector(&reader, &command.frontier);
  if (!status.ok()) return status;
  if (!DecodeUnits(&reader, &command.units)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: bad units");
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: trailing or missing bytes");
  }
  if (command.seed_indexes.size() != command.seed_atoms.size()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage command: seed index/atom mismatch");
  }
  *out = std::move(command);
  return SnapshotStatus::Ok();
}

std::string EncodeStorageReply(const StorageReply& reply) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(reply.type));
  writer.WriteU64(reply.sequence);
  writer.WriteU64(reply.boundary);
  writer.WriteU32(reply.shard);
  writer.WriteU32(reply.num_shards);
  writer.WriteBool(reply.ok);
  writer.WriteString(reply.error);
  writer.WriteU64(reply.fragment_count);
  writer.WriteU64(reply.fragment_hash);
  writer.WriteU64(reply.groups.size());
  for (const StorageReplyGroup& group : reply.groups) {
    writer.WriteU32(group.unit_index);
    writer.WriteU64(group.fact_index);
    writer.WriteU64(group.side_indexes.size());
    for (uint64_t side : group.side_indexes) writer.WriteU64(side);
  }
  return writer.Take();
}

SnapshotStatus DecodeStorageReply(std::string_view payload,
                                  StorageReply* out) {
  BinaryReader reader(payload);
  StorageReply reply;
  uint32_t type = 0;
  reader.ReadU32(&type);
  reader.ReadU64(&reply.sequence);
  reader.ReadU64(&reply.boundary);
  reader.ReadU32(&reply.shard);
  reader.ReadU32(&reply.num_shards);
  reader.ReadBool(&reply.ok);
  if (!reader.ReadString(&reply.error)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage reply: truncated header");
  }
  reader.ReadU64(&reply.fragment_count);
  reader.ReadU64(&reply.fragment_hash);
  uint64_t group_count = 0;
  if (!reader.ReadU64(&group_count)) {
    return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                "storage reply: truncated counters");
  }
  if (type < 1 || type > 2) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage reply: unknown type");
  }
  reply.type = static_cast<StorageReply::Type>(type);
  if (group_count > reader.remaining() / kMinGroupBytes + 1) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage reply: absurd group count");
  }
  reply.groups.reserve(group_count);
  for (uint64_t g = 0; g < group_count; ++g) {
    StorageReplyGroup group;
    reader.ReadU32(&group.unit_index);
    if (!reader.ReadU64(&group.fact_index)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage reply: truncated group");
    }
    uint64_t side_count = 0;
    if (!reader.ReadU64(&side_count)) {
      return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                  "storage reply: truncated candidates");
    }
    if (side_count > reader.remaining() / kMinIndexBytes + 1) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "storage reply: absurd candidate count");
    }
    group.side_indexes.reserve(side_count);
    for (uint64_t s = 0; s < side_count; ++s) {
      uint64_t side = 0;
      if (!reader.ReadU64(&side)) {
        return SnapshotStatus::Fail(SnapshotError::kTruncated,
                                    "storage reply: truncated candidate");
      }
      group.side_indexes.push_back(side);
    }
    reply.groups.push_back(std::move(group));
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "storage reply: trailing or missing bytes");
  }
  *out = std::move(reply);
  return SnapshotStatus::Ok();
}

}  // namespace gqe
