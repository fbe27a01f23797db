#pragma once

/// \file wal.h
/// \brief Write-ahead log for the LSM backend.
///
/// Every write batch is logged before it is applied to the memtable; on
/// restart the log is replayed to rebuild un-flushed state. Record framing is
/// `[varint length][u32 crc][payload]`; replay stops cleanly at the first
/// truncated or corrupt record (torn tail after a crash).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/serde.h"
#include "common/status.h"
#include "state/env.h"
#include "testing/fault_injector.h"

namespace evo::state {

/// \brief Appends framed records to a log file.
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(Env* env,
                                                 const std::string& path) {
    EVO_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(path));
    return std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
  }

  /// \brief Frames `payload` in a buffer reused across appends (callers
  /// serialize appends) and writes the frame.
  Status Append(std::string_view payload) {
    frame_.Clear();
    frame_.WriteVarU64(payload.size());
    frame_.WriteU32(Crc32(payload));
    frame_.WriteRaw(payload.data(), payload.size());
    switch (EVO_FAULT_POINT("wal.append.pre_fsync")) {
      case evo::testing::FaultAction::kError:
      case evo::testing::FaultAction::kCrash:
        return Status::IOError("injected fault [wal.append.pre_fsync]");
      case evo::testing::FaultAction::kShortWrite: {
        // Torn record: only part of the frame reaches the file. A tear is
        // only physically possible when the process dies mid-write, so this
        // also raises the crash flag — chaos drivers must crash-and-reopen
        // before issuing further appends, keeping the tear at the log tail
        // (prefix durability; a tear mid-log would poison later records).
        std::string_view buf = frame_.buffer();
        Status st = file_->Append(buf.substr(0, buf.size() / 2));
        evo::testing::FaultInjector::Instance().RequestCrash();
        if (st.ok()) st = Status::IOError("injected torn WAL record");
        return st;
      }
      default:
        break;
    }
    return file_->Append(frame_.buffer());
  }

  Status Sync() {
    EVO_FAULT_RETURN_IF_SET("wal.sync");
    return file_->Sync();
  }
  Status Close() { return file_->Close(); }
  uint64_t Size() const { return file_->Size(); }

 private:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}
  std::unique_ptr<WritableFile> file_;
  BinaryWriter frame_;
};

/// \brief Replays all intact records from a log file.
class WalReader {
 public:
  /// \brief Reads every record; on a torn/corrupt tail the intact prefix is
  /// returned with OK status (normal crash recovery), but corruption in the
  /// middle (valid records after a bad one would be skipped) still returns
  /// the prefix — the WAL contract is prefix durability.
  static Result<std::vector<std::string>> ReadAll(Env* env,
                                                  const std::string& path) {
    EVO_ASSIGN_OR_RETURN(auto data, env->ReadFileToString(path));
    std::vector<std::string> records;
    size_t offset = 0;
    while (offset < data.size()) {
      BinaryReader r(std::string_view(data).substr(offset));
      uint64_t len = 0;
      if (!r.ReadVarU64(&len).ok()) break;
      uint32_t crc = 0;
      if (!r.ReadU32(&crc).ok()) break;
      if (r.remaining() < len) break;  // torn tail after a crash
      size_t payload_off = offset + r.position();
      std::string_view payload = std::string_view(data).substr(payload_off, len);
      if (Crc32(payload) != crc) break;  // corrupt record: keep intact prefix
      records.emplace_back(payload);
      offset = payload_off + len;
    }
    return records;
  }
};

}  // namespace evo::state
