#include "serve/journal.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "base/subprocess.h"

namespace gqe {

namespace {

// A single journal record larger than this is not something the serving
// tier ever writes (result lines and witness blobs are far smaller); a
// bigger length prefix is treated as corruption, which keeps a
// bit-flipped length from driving a giant allocation during recovery.
constexpr uint32_t kMaxJournalRecordBytes = 64u << 20;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".seg";

void EncodeRecordPayload(const JournalRecord& record, BinaryWriter* writer) {
  writer->WriteU8(static_cast<uint8_t>(record.type));
  writer->WriteString(record.id);
  switch (record.type) {
    case JournalRecordType::kAdmitted:
      writer->WriteString(record.request_line);
      break;
    case JournalRecordType::kAttempt:
      writer->WriteU32(record.attempt);
      writer->WriteBool(record.degraded);
      writer->WriteString(record.cause);
      break;
    case JournalRecordType::kResult:
      writer->WriteU8(static_cast<uint8_t>(static_cast<int>(record.state)));
      writer->WriteString(record.result_line);
      writer->WriteString(record.worker_result);
      break;
  }
}

bool DecodeRecordPayload(std::string_view payload, JournalRecord* record,
                         std::string* error) {
  BinaryReader reader(payload);
  uint8_t type = 0;
  if (!reader.ReadU8(&type) || !reader.ReadString(&record->id)) {
    *error = "journal record header does not decode";
    return false;
  }
  switch (type) {
    case static_cast<uint8_t>(JournalRecordType::kAdmitted):
      record->type = JournalRecordType::kAdmitted;
      if (!reader.ReadString(&record->request_line)) {
        *error = "ADMITTED record does not decode";
        return false;
      }
      break;
    case static_cast<uint8_t>(JournalRecordType::kAttempt):
      record->type = JournalRecordType::kAttempt;
      if (!reader.ReadU32(&record->attempt) ||
          !reader.ReadBool(&record->degraded) ||
          !reader.ReadString(&record->cause)) {
        *error = "ATTEMPT record does not decode";
        return false;
      }
      break;
    case static_cast<uint8_t>(JournalRecordType::kResult): {
      record->type = JournalRecordType::kResult;
      uint8_t state = 0;
      if (!reader.ReadU8(&state) || !reader.ReadString(&record->result_line) ||
          !reader.ReadString(&record->worker_result) ||
          state > static_cast<uint8_t>(TerminalState::kShed)) {
        *error = "RESULT record does not decode";
        return false;
      }
      record->state = static_cast<TerminalState>(state);
      break;
    }
    default:
      *error = "unknown journal record type " + std::to_string(type);
      return false;
  }
  if (!reader.AtEnd()) {
    *error = "journal record has trailing bytes";
    return false;
  }
  return true;
}

}  // namespace

const JournalEntry* JournalRecovery::Find(const std::string& id) const {
  for (const JournalEntry& entry : entries) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

std::string EncodeJournalRecord(const JournalRecord& record) {
  BinaryWriter writer;
  EncodeRecordPayload(record, &writer);
  const std::string envelope =
      WrapSnapshot(kSnapshotKindJournalRecord, writer.buffer());
  BinaryWriter prefix;
  prefix.WriteU32(static_cast<uint32_t>(envelope.size()));
  return prefix.Take() + envelope;
}

size_t DecodeJournalSegment(std::string_view bytes,
                            std::vector<JournalRecord>* records,
                            std::string* error) {
  size_t pos = 0;
  if (error != nullptr) error->clear();
  while (pos + 4 <= bytes.size()) {
    uint32_t length = 0;
    BinaryReader(bytes.substr(pos, 4)).ReadU32(&length);
    if (length > kMaxJournalRecordBytes) {
      if (error != nullptr) {
        *error = "impossible record length " + std::to_string(length);
      }
      return pos;
    }
    if (pos + 4 + length > bytes.size()) {
      if (error != nullptr) *error = "torn tail record";
      return pos;
    }
    std::string_view envelope = bytes.substr(pos + 4, length);
    std::string_view payload;
    const SnapshotStatus status =
        UnwrapSnapshot(envelope, kSnapshotKindJournalRecord, &payload);
    if (!status.ok()) {
      if (error != nullptr) *error = status.message;
      return pos;
    }
    JournalRecord record;
    std::string decode_error;
    if (!DecodeRecordPayload(payload, &record, &decode_error)) {
      if (error != nullptr) *error = decode_error;
      return pos;
    }
    if (records != nullptr) records->push_back(std::move(record));
    pos += 4 + length;
  }
  if (pos < bytes.size() && error != nullptr && error->empty()) {
    *error = "torn tail record";
  }
  return pos;
}

void ApplyJournalRecords(const std::vector<JournalRecord>& records,
                         JournalRecovery* recovery) {
  std::map<std::string, size_t> index;
  for (const JournalEntry& entry : recovery->entries) {
    index[entry.id] = static_cast<size_t>(&entry - recovery->entries.data());
  }
  for (const JournalRecord& record : records) {
    ++recovery->records;
    auto it = index.find(record.id);
    switch (record.type) {
      case JournalRecordType::kAdmitted: {
        if (it != index.end()) {
          ++recovery->duplicate_records;
          break;
        }
        JournalEntry entry;
        entry.id = record.id;
        entry.request_line = record.request_line;
        index[record.id] = recovery->entries.size();
        recovery->entries.push_back(std::move(entry));
        break;
      }
      case JournalRecordType::kAttempt: {
        if (it == index.end()) {
          ++recovery->orphan_records;
          break;
        }
        JournalEntry& entry = recovery->entries[it->second];
        if (entry.has_result) {
          // An attempt after the terminal record is out of order —
          // possible only under corruption; the result stands.
          ++recovery->duplicate_records;
          break;
        }
        if (record.degraded) {
          ++entry.degraded_attempts;
        } else {
          ++entry.exact_attempts;
        }
        entry.attempt_records.push_back(record);
        break;
      }
      case JournalRecordType::kResult: {
        if (it == index.end()) {
          ++recovery->orphan_records;
          break;
        }
        JournalEntry& entry = recovery->entries[it->second];
        if (entry.has_result) {
          ++recovery->duplicate_records;  // first terminal record wins
          break;
        }
        entry.has_result = true;
        entry.state = record.state;
        entry.result_line = record.result_line;
        entry.worker_result = record.worker_result;
        break;
      }
    }
  }
}

RequestJournal::~RequestJournal() {
  if (fd_ >= 0) {
    if (!failed_) ::fsync(fd_);
    ::close(fd_);
  }
}

std::string RequestJournal::SegmentPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return dir_ + "/" + name;
}

SnapshotStatus RequestJournal::Open(const std::string& dir,
                                    const JournalOptions& options,
                                    JournalRecovery* recovery) {
  dir_ = dir;
  options_ = options;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Fail(SnapshotError::kIoError,
                "cannot create journal dir " + dir_ + ": " + ec.message());
  }

  // Segments replay in ascending sequence order; only the last (active)
  // one may legitimately end in a torn record, because rotation fsyncs a
  // segment before opening its successor.
  std::vector<uint64_t> seqs;
  for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = dirent.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0 ||
        name.size() <= strlen(kSegmentPrefix) + strlen(kSegmentSuffix) ||
        name.compare(name.size() - strlen(kSegmentSuffix),
                     strlen(kSegmentSuffix), kSegmentSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        strlen(kSegmentPrefix),
        name.size() - strlen(kSegmentPrefix) - strlen(kSegmentSuffix));
    uint64_t seq = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(c - '0');
    }
    if (numeric) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());

  JournalRecovery local;
  JournalRecovery* rec = recovery != nullptr ? recovery : &local;
  *rec = JournalRecovery{};
  rec->segments = seqs.size();

  std::vector<JournalRecord> records;
  for (size_t i = 0; i < seqs.size(); ++i) {
    const std::string path = SegmentPath(seqs[i]);
    std::string bytes;
    const SnapshotStatus read = ReadFileBytes(path, &bytes);
    if (!read.ok()) {
      return Fail(read.error, "journal segment " + path + ": " + read.message);
    }
    std::string error;
    const size_t valid = DecodeJournalSegment(bytes, &records, &error);
    if (valid < bytes.size()) {
      const size_t damage = bytes.size() - valid;
      if (i + 1 == seqs.size()) {
        // The active segment: a crash tore its tail. Truncate to the
        // last valid record so appends continue from a clean boundary.
        rec->torn_bytes += damage;
        if (::truncate(path.c_str(), static_cast<off_t>(valid)) != 0) {
          return Fail(SnapshotError::kIoError,
                      "cannot truncate torn journal tail of " + path);
        }
      } else {
        // A sealed segment should never be damaged (it was fsynced at
        // rotation); diagnose, skip the damage, keep replaying — the
        // per-record CRC means nothing bogus got into `records`.
        rec->skipped_bytes += damage;
      }
    }
  }
  ApplyJournalRecords(records, rec);

  active_seq_ = seqs.empty() ? 1 : seqs.back();
  const SnapshotStatus status = OpenActiveSegment();
  if (!status.ok()) return status;
  return RotateIfNeeded();
}

SnapshotStatus RequestJournal::OpenActiveSegment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = SegmentPath(active_seq_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Fail(SnapshotError::kIoError,
                "cannot open journal segment " + path);
  }
  struct stat st = {};
  stats_.active_bytes =
      ::fstat(fd_, &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
  return SnapshotStatus::Ok();
}

SnapshotStatus RequestJournal::RotateIfNeeded() {
  if (stats_.active_bytes < options_.segment_bytes) {
    return SnapshotStatus::Ok();
  }
  // Seal the active segment (fsync so a sealed segment can never be
  // torn), then start its successor.
  if (::fsync(fd_) != 0) {
    return Fail(SnapshotError::kIoError, "fsync failed sealing segment");
  }
  ++active_seq_;
  ++stats_.rotations;
  const SnapshotStatus status = OpenActiveSegment();
  if (!status.ok()) return status;
  return FsyncParentDir(SegmentPath(active_seq_));
}

SnapshotStatus RequestJournal::Append(const JournalRecord& record) {
  if (failed_) {
    return SnapshotStatus::Fail(SnapshotError::kIoError, "journal failed");
  }
  if (fd_ < 0) {
    return SnapshotStatus::Fail(SnapshotError::kIoError, "journal not open");
  }
  const std::string bytes = EncodeJournalRecord(record);
  int io_errno = 0;
  if (!WriteAllToFd(fd_, bytes, &io_errno)) {
    return Fail(SnapshotError::kIoError,
                std::string("journal append failed: ") + strerror(io_errno));
  }
  stats_.active_bytes += bytes.size();
  ++stats_.appends;
  if (options_.fsync_each_record && ::fsync(fd_) != 0) {
    return Fail(SnapshotError::kIoError, "journal fsync failed");
  }
  return RotateIfNeeded();
}

SnapshotStatus RequestJournal::AppendAdmitted(const std::string& id,
                                              const std::string& request_line) {
  JournalRecord record;
  record.type = JournalRecordType::kAdmitted;
  record.id = id;
  record.request_line = request_line;
  return Append(record);
}

SnapshotStatus RequestJournal::AppendAttempt(const std::string& id,
                                             uint32_t attempt, bool degraded,
                                             const std::string& cause) {
  JournalRecord record;
  record.type = JournalRecordType::kAttempt;
  record.id = id;
  record.attempt = attempt;
  record.degraded = degraded;
  record.cause = cause;
  return Append(record);
}

SnapshotStatus RequestJournal::AppendResult(const std::string& id,
                                            TerminalState state,
                                            const std::string& result_line,
                                            const std::string& worker_result) {
  JournalRecord record;
  record.type = JournalRecordType::kResult;
  record.id = id;
  record.state = state;
  record.result_line = result_line;
  record.worker_result = worker_result;
  return Append(record);
}

SnapshotStatus RequestJournal::Sync() {
  if (failed_ || fd_ < 0) {
    return SnapshotStatus::Fail(SnapshotError::kIoError, "journal not open");
  }
  if (::fsync(fd_) != 0) {
    return Fail(SnapshotError::kIoError, "journal fsync failed");
  }
  ++stats_.syncs;
  return SnapshotStatus::Ok();
}

SnapshotStatus RequestJournal::Compact(
    const std::vector<JournalEntry>& entries) {
  if (failed_) {
    return SnapshotStatus::Fail(SnapshotError::kIoError, "journal failed");
  }
  std::string bytes;
  for (const JournalEntry& entry : entries) {
    JournalRecord admitted;
    admitted.type = JournalRecordType::kAdmitted;
    admitted.id = entry.id;
    admitted.request_line = entry.request_line;
    bytes += EncodeJournalRecord(admitted);
    // Live (unfinished) entries keep their attempt history so the retry
    // ladder restores exactly; a completed entry only needs its result.
    if (!entry.has_result) {
      for (const JournalRecord& attempt : entry.attempt_records) {
        bytes += EncodeJournalRecord(attempt);
      }
    } else {
      JournalRecord result;
      result.type = JournalRecordType::kResult;
      result.id = entry.id;
      result.state = entry.state;
      result.result_line = entry.result_line;
      result.worker_result = entry.worker_result;
      bytes += EncodeJournalRecord(result);
    }
  }

  // The compacted state lands as the *next* segment via the atomic
  // tmp+fsync+rename path, so a crash mid-compaction leaves either the
  // old segments or old + new (replay is idempotent) — never a hole.
  const uint64_t old_first = 1;
  const uint64_t compact_seq = active_seq_ + 1;
  const std::string compact_path = SegmentPath(compact_seq);
  const SnapshotStatus wrote = WriteFileAtomic(compact_path, bytes);
  if (!wrote.ok()) return Fail(wrote.error, wrote.message);

  for (uint64_t seq = old_first; seq <= active_seq_; ++seq) {
    std::error_code ec;
    std::filesystem::remove(SegmentPath(seq), ec);
  }
  FsyncParentDir(compact_path);

  active_seq_ = compact_seq;
  ++stats_.compactions;
  return OpenActiveSegment();
}

SnapshotStatus RequestJournal::Fail(SnapshotError error, std::string message) {
  failed_ = true;
  stats_.failed = true;
  ++stats_.append_failures;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return SnapshotStatus::Fail(error, std::move(message));
}

}  // namespace gqe
