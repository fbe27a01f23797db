#include "state/sstable.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/crc32.h"
#include "testing/fault_injector.h"

namespace evo::state {

namespace {

/// Decodes the varint at `*p`, no further than `end`, and moves `*p` past
/// it; false if it is truncated or longer than 64 bits.
bool GetVarU64(const char** p, const char* end, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64 && *p < end; shift += 7) {
    const auto byte = static_cast<uint8_t>(*(*p)++);
    v |= uint64_t{byte & 0x7fu} << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

}  // namespace

Status SSTableBuilder::Add(const Entry& e) {
  bool new_key = true;
  if (count_ > 0) {
    int c = LastKey().compare(e.key);
    if (c > 0 || (c == 0 && e.seq >= last_seq_)) {
      return Status::InvalidArgument("SSTableBuilder: entries out of order");
    }
    new_key = c != 0;
  }
  if (count_ % kIndexInterval == 0) stripes_.push_back(data_.size());
  data_.WriteVarU64(e.key.size());
  last_key_off_ = data_.size();
  last_key_size_ = e.key.size();
  data_.WriteRaw(e.key.data(), e.key.size());
  data_.WriteU64(e.seq);
  data_.WriteU8(static_cast<uint8_t>(e.op));
  data_.WriteVarU64(e.value.size());
  data_.WriteRaw(e.value.data(), e.value.size());

  if (new_key) bloom_.Add(e.key);
  last_seq_ = e.seq;
  min_seq_ = std::min(min_seq_, e.seq);
  max_seq_ = std::max(max_seq_, e.seq);
  ++count_;
  return Status::OK();
}

Status SSTableBuilder::Finish() {
  if (count_ == 0) return Status::FailedPrecondition("empty SSTable");
  // Bloom, index and footer go after the data block in the one buffer.
  const uint64_t data_size = data_.size();
  const uint64_t bloom_off = data_.size();
  bloom_.EncodeTo(&data_);

  // The index keys are read back from the data block into their own small
  // buffer: appending them to data_ directly could move the bytes they view.
  BinaryWriter index;
  index.WriteVarU64(stripes_.size());
  for (const uint64_t offset : stripes_) {
    BinaryReader r(std::string_view(data_.buffer()).substr(offset));
    uint64_t klen = 0;
    std::string_view key;
    EVO_RETURN_IF_ERROR(r.ReadVarU64(&klen));
    EVO_RETURN_IF_ERROR(r.ReadRaw(klen, &key));
    index.WriteBytes(key);
    index.WriteU64(offset);
  }
  const uint64_t index_off = data_.size();
  data_.WriteRaw(index.buffer().data(), index.size());

  // Footer (fixed size 48 bytes); the crc covers everything before it.
  data_.WriteU64(bloom_off);
  data_.WriteU64(index_off);
  data_.WriteU64(count_);
  data_.WriteU64(min_seq_);
  data_.WriteU64(max_seq_);
  data_.WriteU32(Crc32(data_.buffer()));
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
  auto reader = std::unique_ptr<SSTableReader>(new SSTableReader());
  EVO_ASSIGN_OR_RETURN(reader->file_, env->ReadFileToString(path));
  const std::string_view raw = reader->file_;
  constexpr size_t kFooterSize = 5 * 8 + 2 * 4;
  if (raw.size() < kFooterSize) return Status::DataLoss("SST too small: " + path);

  const size_t crc_off = raw.size() - 2 * 4;
  BinaryReader footer(raw.substr(raw.size() - kFooterSize));
  uint64_t bloom_off = 0, index_off = 0, count = 0, min_seq = 0, max_seq = 0;
  uint32_t crc = 0, magic = 0;
  EVO_RETURN_IF_ERROR(footer.ReadU64(&bloom_off));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&index_off));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&count));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&min_seq));
  EVO_RETURN_IF_ERROR(footer.ReadU64(&max_seq));
  EVO_RETURN_IF_ERROR(footer.ReadU32(&crc));
  EVO_RETURN_IF_ERROR(footer.ReadU32(&magic));
  if (magic != SSTableBuilder::kMagic) {
    return Status::DataLoss("SST bad magic: " + path);
  }
  if (Crc32(raw.substr(0, crc_off)) != crc) {
    return Status::DataLoss("SST crc mismatch: " + path);
  }
  const size_t footer_off = raw.size() - kFooterSize;
  if (bloom_off > index_off || index_off > footer_off) {
    return Status::DataLoss("SST bad offsets: " + path);
  }

  reader->path_ = path;
  reader->data_ = raw.substr(0, bloom_off);
  reader->entry_count_ = count;
  reader->min_seq_ = min_seq;
  reader->max_seq_ = max_seq;

  BinaryReader bloom_reader(raw.substr(bloom_off, index_off - bloom_off));
  EVO_RETURN_IF_ERROR(reader->bloom_.DecodeFrom(&bloom_reader));

  BinaryReader index_reader(raw.substr(index_off, footer_off - index_off));
  uint64_t n = 0;
  EVO_RETURN_IF_ERROR(index_reader.ReadVarU64(&n));
  if (n > index_reader.remaining()) {
    return Status::DataLoss("SST bad index size: " + path);
  }
  reader->index_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string_view key;
    uint64_t off = 0;
    EVO_RETURN_IF_ERROR(index_reader.ReadBytes(&key));
    EVO_RETURN_IF_ERROR(index_reader.ReadU64(&off));
    if (off > reader->data_.size()) {
      return Status::DataLoss("SST bad index offset: " + path);
    }
    reader->index_.emplace_back(key, off);
  }
  if (!reader->index_.empty()) reader->smallest_ = reader->index_.front().first;

  // Recover the largest key by scanning the last index stripe.
  if (!reader->index_.empty()) {
    Cursor c(reader->data_.substr(reader->index_.back().second));
    for (; c.Current() != nullptr; c.Next()) reader->largest_ = c.Current()->key;
    EVO_RETURN_IF_ERROR(c.status());
  }
  return reader;
}

bool SSTableReader::ParseEntry(std::string_view* in, Entry* out) {
  const char* p = in->data();
  const char* const end = p + in->size();
  uint64_t klen = 0, vlen = 0;
  if (!GetVarU64(&p, end, &klen) || end - p < 9 ||
      klen > static_cast<uint64_t>(end - p) - 9) {
    return false;
  }
  out->key = std::string_view(p, klen);
  p += klen;
  std::memcpy(&out->seq, p, sizeof(out->seq));
  p += sizeof(out->seq);
  out->op = static_cast<EntryOp>(*p++);
  if (!GetVarU64(&p, end, &vlen) || vlen > static_cast<uint64_t>(end - p)) {
    return false;
  }
  out->value = std::string_view(p, vlen);
  *in = std::string_view(p + vlen, static_cast<size_t>(end - p) - vlen);
  return true;
}

void SSTableReader::Cursor::Next() {
  valid_ = !rest_.empty() && ParseEntry(&rest_, &entry_);
  if (!valid_ && !rest_.empty()) status_ = Status::DataLoss("SST entry truncated");
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
  Cursor c(data_.substr(offset));
  while (c.Current() != nullptr && c.Current()->key < lo) c.Next();
  return c;
}

Result<std::optional<Entry>> SSTableReader::Get(std::string_view key) const {
  Cursor c = Seek(key);  // lands on the newest version of its key
  if (c.Current() != nullptr && c.Current()->key == key) {
    return std::optional<Entry>(*c.Current());
  }
  EVO_RETURN_IF_ERROR(c.status());
  return std::optional<Entry>{};
}

}  // namespace evo::state
