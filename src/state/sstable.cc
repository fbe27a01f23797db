#include "state/sstable.h"

#include <algorithm>
#include <iterator>

#include "common/crc32.h"
#include "testing/fault_injector.h"

namespace evo::state {

Status SSTableBuilder::Add(const Entry& e) {
  if (count_ > 0) {
    int c = last_key_.compare(e.key);
    if (c > 0 || (c == 0 && e.seq >= last_seq_)) {
      return Status::InvalidArgument("SSTableBuilder: entries out of order");
    }
  } else {
    smallest_ = e.key;
  }
  if (count_ % kIndexInterval == 0) {
    index_.emplace_back(e.key, data_.size());
  }
  data_.WriteVarU64(e.key.size());
  data_.WriteRaw(e.key.data(), e.key.size());
  data_.WriteU64(e.seq);
  data_.WriteU8(static_cast<uint8_t>(e.op));
  data_.WriteVarU64(e.value.size());
  data_.WriteRaw(e.value.data(), e.value.size());

  if (last_key_ != e.key) bloom_.Add(e.key);
  last_key_ = e.key;
  last_seq_ = e.seq;
  largest_ = e.key;
  min_seq_ = std::min(min_seq_, e.seq);
  max_seq_ = std::max(max_seq_, e.seq);
  ++count_;
  return Status::OK();
}

Status SSTableBuilder::Finish() {
  if (count_ == 0) return Status::FailedPrecondition("empty SSTable");
  // Bloom, index and footer go after the data block in the one buffer.
  const uint64_t data_size = data_.size();
  const uint32_t data_crc = Crc32(data_.buffer());

  const uint64_t bloom_off = data_.size();
  bloom_.EncodeTo(&data_);

  const uint64_t index_off = data_.size();
  data_.WriteVarU64(index_.size());
  for (const auto& [key, offset] : index_) {
    data_.WriteBytes(key);
    data_.WriteU64(offset);
  }

  // Footer (fixed size 52 bytes).
  data_.WriteU64(bloom_off);
  data_.WriteU64(index_off);
  data_.WriteU64(count_);
  data_.WriteU64(min_seq_);
  data_.WriteU64(max_seq_);
  data_.WriteU32(data_crc);
  data_.WriteU32(kMagic);
  std::string file = data_.Take();

  switch (EVO_FAULT_POINT("sstable.finish")) {
    case evo::testing::FaultAction::kError:
    case evo::testing::FaultAction::kCrash:
      return Status::IOError("injected fault [sstable.finish]");
    case evo::testing::FaultAction::kShortWrite:
      // Bit rot / torn SST image: the file lands with a flipped byte in its
      // data block. Readers must refuse it with DataLoss, never serve it.
      file[data_size / 2] ^= 0x40;  // inside the CRC-covered data block
      EVO_RETURN_IF_ERROR(env_->WriteStringToFile(path_, file));
      return Status::OK();  // the writer never notices silent corruption
    default:
      break;
  }
  return env_->WriteStringToFile(path_, file);
}

Result<std::unique_ptr<SSTableReader>> SSTableReader::Open(
    Env* env, const std::string& path) {
  EVO_ASSIGN_OR_RETURN(auto raw, env->ReadFileToString(path));
  constexpr size_t kFooterSize = 5 * 8 + 2 * 4;
  if (raw.size() < kFooterSize) return Status::DataLoss("SST too small: " + path);

  BinaryReader footer(std::string_view(raw).substr(raw.size() - kFooterSize));
  uint64_t bloom_off = 0, index_off = 0, count = 0, min_seq = 0, max_seq = 0;
  uint32_t data_crc = 0, magic = 0;
  EVO_RETURN_IF_ERROR(footer.ReadU64(&bloom_off));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&index_off));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&count));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&min_seq));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&max_seq));
  EVO_RETURN_IF_ERROR(footer.ReadU32(&data_crc));
  EVO_RETURN_IF_ERROR(footer.ReadU32(&magic));
  if (magic != SSTableBuilder::kMagic) {
    return Status::DataLoss("SST bad magic: " + path);
  }
  if (bloom_off > raw.size() || index_off > raw.size() || bloom_off > index_off) {
    return Status::DataLoss("SST bad offsets: " + path);
  }
  std::string_view data_block = std::string_view(raw).substr(0, bloom_off);
  if (Crc32(data_block) != data_crc) {
    return Status::DataLoss("SST data crc mismatch: " + path);
  }

  auto reader = std::unique_ptr<SSTableReader>(new SSTableReader());
  reader->path_ = path;
  reader->data_.assign(data_block);
  reader->entry_count_ = count;
  reader->min_seq_ = min_seq;
  reader->max_seq_ = max_seq;

  BinaryReader bloom_reader(
      std::string_view(raw).substr(bloom_off, index_off - bloom_off));
  EVO_RETURN_IF_ERROR(reader->bloom_.DecodeFrom(&bloom_reader));

  BinaryReader index_reader(std::string_view(raw).substr(
      index_off, raw.size() - kFooterSize - index_off));
  uint64_t n = 0;
  EVO_RETURN_IF_ERROR(index_reader.ReadVarU64(&n));
  reader->index_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    uint64_t off = 0;
    EVO_RETURN_IF_ERROR(index_reader.ReadString(&key));
    EVO_RETURN_IF_ERROR(index_reader.ReadU64(&off));
    reader->index_.emplace_back(std::move(key), off);
  }
  if (!reader->index_.empty()) reader->smallest_ = reader->index_.front().first;

  // Recover the largest key by scanning the last index stripe.
  if (!reader->index_.empty()) {
    Cursor c(std::string_view(reader->data_).substr(
        reader->index_.back().second));
    for (; c.Current() != nullptr; c.Next()) reader->largest_ = c.Current()->key;
    EVO_RETURN_IF_ERROR(c.status());
  }
  return reader;
}

Status SSTableReader::ParseEntry(BinaryReader* r, Entry* out) {
  uint64_t klen = 0;
  EVO_RETURN_IF_ERROR(r->ReadVarU64(&klen));
  std::string_view key;
  EVO_RETURN_IF_ERROR(r->ReadRaw(klen, &key));
  out->key.assign(key);
  EVO_RETURN_IF_ERROR(r->ReadU64(&out->seq));
  uint8_t op = 0;
  EVO_RETURN_IF_ERROR(r->ReadU8(&op));
  out->op = static_cast<EntryOp>(op);
  uint64_t vlen = 0;
  EVO_RETURN_IF_ERROR(r->ReadVarU64(&vlen));
  std::string_view value;
  EVO_RETURN_IF_ERROR(r->ReadRaw(vlen, &value));
  out->value.assign(value);
  return Status::OK();
}

void SSTableReader::Cursor::Next() {
  valid_ = !reader_.AtEnd();
  if (!valid_) return;
  status_ = ParseEntry(&reader_, &entry_);
  valid_ = status_.ok();
}

SSTableReader::Cursor SSTableReader::Seek(std::string_view lo) const {
  // The one index search: start at the last stripe whose first key is
  // STRICTLY below `lo`. Starting at a stripe whose first key equals `lo`
  // would be wrong: versions of one key are ordered newest-first and may
  // span a stripe boundary, so the newest version can live at the tail of
  // the previous stripe.
  auto stripe = std::lower_bound(
      index_.begin(), index_.end(), lo,
      [](const auto& entry, std::string_view k) { return entry.first < k; });
  const uint64_t offset = stripe == index_.begin() ? 0 : std::prev(stripe)->second;
  Cursor c(std::string_view(data_).substr(offset));
  while (c.Current() != nullptr && c.Current()->key < lo) c.Next();
  return c;
}

Result<std::optional<Entry>> SSTableReader::Get(std::string_view key,
                                                uint64_t snapshot_seq) const {
  Cursor c = Seek(key);
  for (; c.Current() != nullptr && c.Current()->key == key; c.Next()) {
    if (c.Current()->seq <= snapshot_seq) {
      return std::optional<Entry>(*c.Current());
    }
  }
  EVO_RETURN_IF_ERROR(c.status());
  return std::optional<Entry>{};
}

}  // namespace evo::state
