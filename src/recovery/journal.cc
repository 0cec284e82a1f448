#include "recovery/journal.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32c.h"
#include "common/fs_util.h"
#include "net/wire.h"
#include "recovery/crash_point.h"

namespace hdsky {
namespace recovery {

using common::Result;
using common::Status;

namespace {

constexpr char kJournalMagic[] = "hdsky-journal-v1";

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

void PutLE32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(v >> (8 * i))));
  }
}

uint32_t GetLE32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

uint32_t Crc32c(std::string_view data) { return common::Crc32c(data); }

void AppendFrame(std::string_view payload, std::string* out) {
  PutLE32(static_cast<uint32_t>(payload.size()), out);
  PutLE32(Crc32c(payload), out);
  out->append(payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Record payloads.

std::string EncodeHeaderRecord(int width) {
  std::string out;
  net::Encoder enc(&out);
  enc.PutU8(static_cast<uint8_t>(RecordType::kHeader));
  enc.PutString(kJournalMagic);
  enc.PutU32(static_cast<uint32_t>(width));
  return out;
}

std::string EncodeIntentRecord(uint64_t seq, std::string_view signature) {
  std::string out;
  net::Encoder enc(&out);
  enc.PutU8(static_cast<uint8_t>(RecordType::kIntent));
  enc.PutU64(seq);
  enc.PutString(signature);
  return out;
}

std::string EncodeResultRecord(uint64_t seq, std::string_view signature,
                               const interface::QueryResult& result) {
  std::string out;
  net::Encoder enc(&out);
  enc.PutU8(static_cast<uint8_t>(RecordType::kResult));
  enc.PutString(signature);
  // The answer body reuses the wire kResult codec (seq + overflow + tuples)
  // so replayed answers are bit-identical to what crossed the network.
  net::EncodeResult(seq, result, &out);
  return out;
}

std::string EncodeCheckpointRecord(std::string_view state) {
  std::string out;
  net::Encoder enc(&out);
  enc.PutU8(static_cast<uint8_t>(RecordType::kCheckpoint));
  enc.PutString(state);
  return out;
}

Result<int> DecodeHeaderRecord(std::string_view payload) {
  net::Decoder dec(payload);
  uint8_t tag = 0;
  std::string magic;
  uint32_t width = 0;
  dec.GetU8(&tag);
  dec.GetString(&magic);
  dec.GetU32(&width);
  if (!dec.exhausted() || tag != static_cast<uint8_t>(RecordType::kHeader) ||
      magic != kJournalMagic) {
    return Status::IOError("malformed journal header record");
  }
  if (width == 0 || width > 4096) {
    return Status::IOError("journal header declares implausible width " +
                           std::to_string(width));
  }
  return static_cast<int>(width);
}

Result<JournalRecord> DecodeRecord(std::string_view payload, int width) {
  net::Decoder dec(payload);
  uint8_t tag = 0;
  if (!dec.GetU8(&tag)) return Status::IOError("empty journal record");
  JournalRecord rec;
  switch (static_cast<RecordType>(tag)) {
    case RecordType::kIntent: {
      rec.type = RecordType::kIntent;
      dec.GetU64(&rec.seq);
      dec.GetString(&rec.signature);
      if (!dec.exhausted()) {
        return Status::IOError("malformed journal intent record");
      }
      break;
    }
    case RecordType::kResult: {
      rec.type = RecordType::kResult;
      if (!dec.GetString(&rec.signature)) {
        return Status::IOError("malformed journal result record");
      }
      HDSKY_RETURN_IF_ERROR(
          net::DecodeResultBody(&dec, width, &rec.seq, &rec.result));
      if (!dec.exhausted()) {
        return Status::IOError("journal result record has trailing bytes");
      }
      break;
    }
    case RecordType::kCheckpoint: {
      rec.type = RecordType::kCheckpoint;
      if (!dec.GetString(&rec.state) || !dec.exhausted()) {
        return Status::IOError("malformed journal checkpoint record");
      }
      return rec;
    }
    default:
      return Status::IOError("unknown journal record tag " +
                             std::to_string(tag));
  }
  // A signature is the query's packed interval bounds: 16 bytes per
  // attribute. Anything else means the journal belongs to a different
  // database than the one being resumed.
  if (rec.signature.size() != static_cast<size_t>(width) * 16) {
    return Status::IOError("journal record signature width mismatch");
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Reader.

Result<JournalContents> ReadJournalFile(const std::string& path) {
  std::string data;
  HDSKY_ASSIGN_OR_RETURN(data, common::ReadFileToString(path));
  JournalContents out;
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t left = data.size() - pos;
    // Anything that fails from here on is either a torn tail (this frame
    // is the last bytes of the file) or interior corruption (valid-looking
    // data continues past it). A lying length prefix can make a corrupted
    // interior frame *look* like it extends to EOF — that ambiguity is
    // inherent to length-prefixed logs and resolves to the safe side:
    // the prefix before the damage is all that is trusted.
    if (left < kRecordHeaderBytes) {
      out.torn = true;
      break;
    }
    const uint32_t len = GetLE32(data.data() + pos);
    const uint32_t crc = GetLE32(data.data() + pos + 4);
    if (len > kMaxRecordBytes) {
      return Status::IOError(path + ": journal record at offset " +
                             std::to_string(pos) +
                             " declares implausible length " +
                             std::to_string(len));
    }
    if (left - kRecordHeaderBytes < len) {
      out.torn = true;
      break;
    }
    const std::string_view payload(data.data() + pos + kRecordHeaderBytes,
                                   len);
    if (Crc32c(payload) != crc) {
      if (pos + kRecordHeaderBytes + len == data.size()) {
        // Final record: its bytes were only partially persisted.
        out.torn = true;
        break;
      }
      return Status::IOError(path + ": journal record at offset " +
                             std::to_string(pos) + " fails its checksum " +
                             "with further data after it (interior " +
                             "corruption; refusing to resume)");
    }
    out.payloads.emplace_back(payload);
    pos += kRecordHeaderBytes + len;
  }
  out.valid_bytes = static_cast<int64_t>(pos);
  return out;
}

// ---------------------------------------------------------------------------
// Writer.

Result<std::unique_ptr<JournalWriter>> JournalWriter::Create(
    const std::string& path, int width, const Options& options) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd < 0) return Errno("create journal", path);
  std::unique_ptr<JournalWriter> writer(
      new JournalWriter(path, fd, options));
  std::string frame;
  AppendFrame(EncodeHeaderRecord(width), &frame);
  HDSKY_RETURN_IF_ERROR(writer->WriteAll(frame.data(), frame.size()));
  writer->unsynced_records_ = 1;
  HDSKY_RETURN_IF_ERROR(writer->Sync());
  return writer;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::OpenForAppend(
    const std::string& path, int64_t valid_bytes, const Options& options) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) return Errno("open journal", path);
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    const Status s = Errno("truncate journal", path);
    ::close(fd);
    return s;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status s = Errno("seek journal", path);
    ::close(fd);
    return s;
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(path, fd, options));
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Status JournalWriter::WriteAll(const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("append journal", path_);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status JournalWriter::Append(std::string_view payload) {
  std::string frame;
  AppendFrame(payload, &frame);
  if (CrashPointArmed("journal.append.torn")) {
    // Persist only half the frame, then die: the on-disk tail is torn the
    // way a power cut mid-write would leave it.
    const size_t half = frame.size() / 2;
    HDSKY_RETURN_IF_ERROR(WriteAll(frame.data(), half));
    ::fsync(fd_);
    CrashPointHit("journal.append.torn");
    // Hit count not yet reached: finish the frame and carry on.
    HDSKY_RETURN_IF_ERROR(WriteAll(frame.data() + half, frame.size() - half));
  } else {
    HDSKY_RETURN_IF_ERROR(WriteAll(frame.data(), frame.size()));
  }
  CrashPointHit("journal.append.pre_sync");
  ++unsynced_records_;
  if (unsynced_records_ >= options_.sync_every) return Sync();
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (unsynced_records_ == 0) return Status::OK();
  if (::fsync(fd_) != 0) return Errno("fsync journal", path_);
  unsynced_records_ = 0;
  return Status::OK();
}

}  // namespace recovery
}  // namespace hdsky
