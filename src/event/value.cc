#include "event/value.h"

#include <sstream>

namespace evo {

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kString:
      return AsString();
    case ValueType::kList: {
      std::string out = "(";
      const auto& l = AsList();
      for (size_t i = 0; i < l.size(); ++i) {
        if (i) out += ", ";
        out += l[i].ToString();
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

void Value::EncodeTo(BinaryWriter* w) const {
  w->WriteU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->WriteI64(AsInt());
      break;
    case ValueType::kDouble:
      w->WriteDouble(AsDouble());
      break;
    case ValueType::kBool:
      w->WriteBool(AsBool());
      break;
    case ValueType::kString:
      w->WriteBytes(AsString());
      break;
    case ValueType::kList: {
      const auto& l = AsList();
      w->WriteVarU64(l.size());
      for (const auto& e : l) e.EncodeTo(w);
      break;
    }
  }
}

Status Value::DecodeFrom(BinaryReader* r, Value* out) {
  // Decodes in place into `out`: no temporary Value per field, which
  // matters on the data plane, where every record crossing a channel is
  // decoded.
  uint8_t tag = 0;
  EVO_RETURN_IF_ERROR(r->ReadU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      out->v_.emplace<std::monostate>();
      return Status::OK();
    case ValueType::kInt:
      return r->ReadI64(&out->v_.emplace<int64_t>());
    case ValueType::kDouble:
      return r->ReadDouble(&out->v_.emplace<double>());
    case ValueType::kBool:
      return r->ReadBool(&out->v_.emplace<bool>());
    case ValueType::kString:
      return r->ReadString(&out->v_.emplace<std::string>());
    case ValueType::kList: {
      uint64_t n = 0;
      EVO_RETURN_IF_ERROR(r->ReadVarU64(&n));
      ValueList& l = out->v_.emplace<ValueList>();
      l.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        EVO_RETURN_IF_ERROR(DecodeFrom(r, &l.emplace_back()));
      }
      return Status::OK();
    }
  }
  return Status::DataLoss("Value: unknown type tag");
}

}  // namespace evo
