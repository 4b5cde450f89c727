#include "base/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <span>

#include "base/interner.h"
#include "base/schema.h"

namespace gqe {

namespace {

// "GQES" in little-endian byte order.
constexpr uint32_t kMagic = 0x53455147u;
// magic u32 | kind u16 | version u16 | payload size u64 | crc u32.
constexpr size_t kHeaderSize = 4 + 2 + 2 + 8 + 4;

const uint32_t* Crc32Table() {
  static const uint32_t* const kTable = [] {
    uint32_t* table = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
      }
      table[i] = crc;
    }
    return table;
  }();
  return kTable;
}

// One fact of a fact sequence: predicate id, arity, argument bits. The
// only place the per-fact layout is written.
void EncodeFact(PredicateId pred, std::span<const Term> args,
                BinaryWriter* writer) {
  writer->WriteU32(pred);
  writer->WriteU32(static_cast<uint32_t>(args.size()));
  for (Term t : args) writer->WriteU32(t.bits());
}

}  // namespace

const char* SnapshotErrorName(SnapshotError error) {
  switch (error) {
    case SnapshotError::kNone:
      return "ok";
    case SnapshotError::kIoError:
      return "io-error";
    case SnapshotError::kNotFound:
      return "not-found";
    case SnapshotError::kBadMagic:
      return "bad-magic";
    case SnapshotError::kTruncated:
      return "truncated";
    case SnapshotError::kChecksumMismatch:
      return "checksum-mismatch";
    case SnapshotError::kVersionMismatch:
      return "version-mismatch";
    case SnapshotError::kFormatError:
      return "format-error";
    case SnapshotError::kInternerConflict:
      return "interner-conflict";
  }
  return "unknown";
}

void BinaryWriter::WriteU8(uint8_t value) {
  buffer_.push_back(static_cast<char>(value));
}

void BinaryWriter::WriteU16(uint16_t value) {
  WriteU8(static_cast<uint8_t>(value));
  WriteU8(static_cast<uint8_t>(value >> 8));
}

void BinaryWriter::WriteU32(uint32_t value) {
  WriteU16(static_cast<uint16_t>(value));
  WriteU16(static_cast<uint16_t>(value >> 16));
}

void BinaryWriter::WriteU64(uint64_t value) {
  WriteU32(static_cast<uint32_t>(value));
  WriteU32(static_cast<uint32_t>(value >> 32));
}

void BinaryWriter::WriteString(std::string_view value) {
  WriteU64(value.size());
  buffer_.append(value.data(), value.size());
}

bool BinaryReader::Take(size_t n, const char** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool BinaryReader::ReadU8(uint8_t* out) {
  const char* p;
  if (!Take(1, &p)) return false;
  *out = static_cast<uint8_t>(*p);
  return true;
}

bool BinaryReader::ReadU16(uint16_t* out) {
  const char* p;
  if (!Take(2, &p)) return false;
  *out = static_cast<uint16_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8;
  return true;
}

bool BinaryReader::ReadU32(uint32_t* out) {
  uint16_t lo, hi;
  if (!ReadU16(&lo) || !ReadU16(&hi)) return false;
  *out = static_cast<uint32_t>(lo) | static_cast<uint32_t>(hi) << 16;
  return true;
}

bool BinaryReader::ReadU64(uint64_t* out) {
  uint32_t lo, hi;
  if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
  *out = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
  return true;
}

bool BinaryReader::ReadI32(int32_t* out) {
  uint32_t raw;
  if (!ReadU32(&raw)) return false;
  *out = static_cast<int32_t>(raw);
  return true;
}

bool BinaryReader::ReadBool(bool* out) {
  uint8_t raw;
  if (!ReadU8(&raw)) return false;
  *out = raw != 0;
  return true;
}

bool BinaryReader::ReadString(std::string* out) {
  uint64_t size;
  if (!ReadU64(&size)) return false;
  // An impossible length (longer than the remaining bytes) must fail
  // before any allocation, so a corrupt length cannot OOM the process.
  const char* p;
  if (size > remaining() || !Take(static_cast<size_t>(size), &p)) {
    ok_ = false;
    return false;
  }
  out->assign(p, static_cast<size_t>(size));
  return true;
}

uint32_t Crc32(std::string_view data) {
  const uint32_t* table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string WrapSnapshot(uint16_t kind, std::string_view payload) {
  BinaryWriter header;
  header.WriteU32(kMagic);
  header.WriteU16(kind);
  header.WriteU16(kSnapshotVersion);
  header.WriteU64(payload.size());
  header.WriteU32(Crc32(payload));
  std::string out = header.Take();
  out.append(payload.data(), payload.size());
  return out;
}

SnapshotStatus UnwrapSnapshot(std::string_view bytes, uint16_t kind,
                              std::string_view* payload) {
  if (bytes.size() < kHeaderSize) {
    return SnapshotStatus::Fail(
        SnapshotError::kTruncated,
        "snapshot shorter than its header (" +
            std::to_string(bytes.size()) + " bytes)");
  }
  BinaryReader reader(bytes.substr(0, kHeaderSize));
  uint32_t magic = 0, crc = 0;
  uint16_t stored_kind = 0, version = 0;
  uint64_t payload_size = 0;
  reader.ReadU32(&magic);
  reader.ReadU16(&stored_kind);
  reader.ReadU16(&version);
  reader.ReadU64(&payload_size);
  reader.ReadU32(&crc);
  if (magic != kMagic) {
    return SnapshotStatus::Fail(SnapshotError::kBadMagic,
                                "not a gqe snapshot (bad magic)");
  }
  if (version > kSnapshotVersion) {
    return SnapshotStatus::Fail(
        SnapshotError::kVersionMismatch,
        "snapshot version " + std::to_string(version) +
            " is newer than supported version " +
            std::to_string(kSnapshotVersion));
  }
  if (stored_kind != kind) {
    return SnapshotStatus::Fail(
        SnapshotError::kFormatError,
        "snapshot kind " + std::to_string(stored_kind) + ", expected " +
            std::to_string(kind));
  }
  if (bytes.size() - kHeaderSize != payload_size) {
    return SnapshotStatus::Fail(
        SnapshotError::kTruncated,
        "payload is " + std::to_string(bytes.size() - kHeaderSize) +
            " bytes, header claims " + std::to_string(payload_size));
  }
  std::string_view body = bytes.substr(kHeaderSize);
  const uint32_t actual = Crc32(body);
  if (actual != crc) {
    return SnapshotStatus::Fail(
        SnapshotError::kChecksumMismatch,
        "payload checksum mismatch (stored " + std::to_string(crc) +
            ", computed " + std::to_string(actual) + ")");
  }
  *payload = body;
  return SnapshotStatus::Ok();
}

SnapshotStatus ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    const SnapshotError error = errno == ENOENT ? SnapshotError::kNotFound
                                                : SnapshotError::kIoError;
    return SnapshotStatus::Fail(
        error, path + ": " + std::strerror(errno));
  }
  out->clear();
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      return SnapshotStatus::Fail(SnapshotError::kIoError,
                                  path + ": " + std::strerror(saved));
    }
    if (n == 0) break;
    out->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return SnapshotStatus::Ok();
}

namespace {

WriteFaultInjectorForTest* g_write_fault_injector = nullptr;

// The write syscall as seen by WriteFileAtomic: defers to the injector
// (short writes, then a hard errno) when one is installed.
ssize_t WriteForSnapshot(int fd, const char* data, size_t size) {
  WriteFaultInjectorForTest* injector = g_write_fault_injector;
  if (injector != nullptr) {
    if (injector->written >= injector->fail_after_bytes) {
      errno = injector->error != 0 ? injector->error : ENOSPC;
      return -1;
    }
    // Model a device with limited room: accept only what fits, so the
    // caller's short-write loop is exercised before the hard failure.
    const size_t room = injector->fail_after_bytes - injector->written;
    if (size > room) size = room;
    injector->written += size;
  }
  return ::write(fd, data, size);
}

}  // namespace

void SetWriteFaultInjectorForTest(WriteFaultInjectorForTest* injector) {
  g_write_fault_injector = injector;
}

SnapshotStatus FsyncParentDir(const std::string& path) {
  std::string dir;
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path.substr(0, slash);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                dir + ": open for fsync: " +
                                    std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                dir + ": fsync: " + std::strerror(saved));
  }
  ::close(fd);
  return SnapshotStatus::Ok();
}

SnapshotStatus WriteFileAtomic(const std::string& path,
                               std::string_view bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                tmp + ": " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        WriteForSnapshot(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return SnapshotStatus::Fail(SnapshotError::kIoError,
                                  tmp + ": " + std::strerror(saved));
    }
    written += static_cast<size_t>(n);
  }
  // The data must be on disk before the rename makes it visible;
  // otherwise a crash could leave a fully renamed but empty snapshot.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                tmp + ": fsync: " + std::strerror(saved));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                path + ": rename: " + std::strerror(saved));
  }
  // Make the rename durable: without fsyncing the directory, a power
  // loss can forget the new directory entry even though the file's own
  // bytes were fsynced — the snapshot would survive a crash but not an
  // outage. The old entry (if any) remains valid either way, so a
  // failure here degrades durability of *this* generation only.
  return FsyncParentDir(path);
}

std::vector<uint64_t> ListNumberedFiles(const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<uint64_t> numbers;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix)) {
      continue;
    }
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size() - suffix.size();
    uint64_t value = 0;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error == std::errc() && end == last) numbers.push_back(value);
  }
  std::sort(numbers.begin(), numbers.end());
  numbers.erase(std::unique(numbers.begin(), numbers.end()), numbers.end());
  return numbers;
}

void EncodeInterner(BinaryWriter* writer) {
  Interner& interner = Interner::Global();
  const Interner::Pool pools[] = {Interner::Pool::kConstant,
                                  Interner::Pool::kVariable,
                                  Interner::Pool::kPredicate};
  for (Interner::Pool pool : pools) {
    const size_t n = interner.PoolSize(pool);
    writer->WriteU64(n);
    for (uint32_t id = 0; id < n; ++id) {
      writer->WriteString(interner.Name(pool, id));
      if (pool == Interner::Pool::kPredicate) {
        writer->WriteI32(predicates::Arity(id));
      }
    }
  }
  writer->WriteU64(interner.fresh_counter());
}

SnapshotStatus DecodeInterner(BinaryReader* reader) {
  Interner& interner = Interner::Global();
  const Interner::Pool pools[] = {Interner::Pool::kConstant,
                                  Interner::Pool::kVariable,
                                  Interner::Pool::kPredicate};
  for (Interner::Pool pool : pools) {
    uint64_t n = 0;
    if (!reader->ReadU64(&n)) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "interner section cut short");
    }
    for (uint64_t id = 0; id < n; ++id) {
      std::string name;
      if (!reader->ReadString(&name)) {
        return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                    "interner name cut short");
      }
      int32_t arity = 0;
      if (pool == Interner::Pool::kPredicate &&
          (!reader->ReadI32(&arity) || arity < 0)) {
        return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                    "predicate arity cut short or negative");
      }
      uint32_t got;
      if (pool == Interner::Pool::kPredicate) {
        // predicates::Intern aborts on an arity conflict; probe first so
        // a mismatching snapshot is an error, not a crash.
        const PredicateId existing = predicates::Lookup(name);
        if (existing != static_cast<PredicateId>(-1) &&
            predicates::Arity(existing) != arity) {
          return SnapshotStatus::Fail(
              SnapshotError::kInternerConflict,
              "predicate '" + name + "' has arity " +
                  std::to_string(predicates::Arity(existing)) +
                  " here but " + std::to_string(arity) +
                  " in the snapshot");
        }
        got = predicates::Intern(name, arity);
      } else {
        got = interner.Intern(pool, name);
      }
      if (got != id) {
        return SnapshotStatus::Fail(
            SnapshotError::kInternerConflict,
            "name '" + name + "' interned at id " + std::to_string(got) +
                ", snapshot expects " + std::to_string(id));
      }
    }
  }
  uint64_t fresh = 0;
  if (!reader->ReadU64(&fresh)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "fresh counter cut short");
  }
  if (fresh > interner.fresh_counter()) interner.set_fresh_counter(fresh);
  return SnapshotStatus::Ok();
}

void EncodeAtomVector(const std::vector<Atom>& atoms, BinaryWriter* writer) {
  writer->WriteU64(atoms.size());
  for (const Atom& atom : atoms) {
    EncodeFact(atom.predicate(), atom.args(), writer);
  }
}

SnapshotStatus DecodeAtomVector(BinaryReader* reader,
                                std::vector<Atom>* out) {
  Interner& interner = Interner::Global();
  const size_t num_predicates =
      interner.PoolSize(Interner::Pool::kPredicate);
  const size_t num_constants = interner.PoolSize(Interner::Pool::kConstant);
  uint64_t count = 0;
  if (!reader->ReadU64(&count)) {
    return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                "fact count cut short");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t pred = 0, arity = 0;
    if (!reader->ReadU32(&pred) || !reader->ReadU32(&arity)) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "fact header cut short");
    }
    if (pred >= num_predicates) {
      return SnapshotStatus::Fail(
          SnapshotError::kFormatError,
          "fact references unknown predicate id " + std::to_string(pred));
    }
    if (static_cast<int>(arity) != predicates::Arity(pred)) {
      return SnapshotStatus::Fail(
          SnapshotError::kFormatError,
          "fact arity " + std::to_string(arity) + " does not match '" +
              std::string(predicates::Name(pred)) + "/" +
              std::to_string(predicates::Arity(pred)) + "'");
    }
    if (uint64_t{arity} * sizeof(uint32_t) > reader->remaining()) {
      return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                  "fact arguments cut short");
    }
    std::vector<Term> args;
    args.reserve(arity);
    for (uint32_t a = 0; a < arity; ++a) {
      uint32_t bits = 0;
      reader->ReadU32(&bits);
      Term t = Term::FromBits(bits);
      if (t.IsVariable()) {
        return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                    "instance fact contains a variable");
      }
      if (t.IsConstant() && t.id() >= num_constants) {
        return SnapshotStatus::Fail(
            SnapshotError::kFormatError,
            "fact references unknown constant id " + std::to_string(t.id()));
      }
      if (t.kind() != Term::Kind::kConstant &&
          t.kind() != Term::Kind::kNull) {
        return SnapshotStatus::Fail(SnapshotError::kFormatError,
                                    "fact argument has an invalid tag");
      }
      args.push_back(t);
    }
    out->push_back(Atom(pred, std::move(args)));
  }
  return SnapshotStatus::Ok();
}

void EncodeInstance(const Instance& instance, BinaryWriter* writer) {
  writer->WriteU64(instance.size());
  for (uint32_t i = 0; i < instance.size(); ++i) {
    EncodeFact(instance.predicate_of(i), instance.args_of(i), writer);
  }
}

SnapshotStatus DecodeInstance(BinaryReader* reader, Instance* out) {
  std::vector<Atom> atoms;
  SnapshotStatus status = DecodeAtomVector(reader, &atoms);
  if (!status.ok()) return status;
  out->InsertAll(atoms);
  return SnapshotStatus::Ok();
}

}  // namespace gqe
