#include "prov/columnar.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "prov/row_group.h"

namespace provledger {
namespace prov {
namespace columnar {

const uint8_t kBlockMagic[8] = {'P', 'L', 'C', 'O', 'L', 'B', '0', '1'};

namespace {

// Longest trailing decimal-digit run handled numerically. 18 digits always
// fit a uint64; a longer run keeps its overflow in the head string, which
// still concatenates back exactly.
constexpr size_t kMaxDigits = 18;

/// Batch-local string dictionary: ids in first-intern order, emitted
/// (count + length-prefixed entries) ahead of the columns that reference
/// it. Entries are views into the batch's payloads or records, which
/// outlive the encode call, keyed by a flat NameTable.
class DictBuilder {
 public:
  uint64_t Intern(std::string_view s) {
    const uint64_t hash = NameHash(s);
    const auto name_of = [this](uint32_t i) { return entries_[i]; };
    const uint32_t found = table_.Find(s, hash, name_of);
    if (found != NameTable::kNone) return found;
    const auto id = static_cast<uint32_t>(entries_.size());
    entries_.push_back(s);
    table_.Insert(id, hash, name_of);
    return id;
  }

  void EmitTo(Encoder* enc) const {
    enc->PutUVarint(entries_.size());
    for (std::string_view s : entries_) {
      enc->PutUVarint(s.size());
      enc->PutRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
    }
  }

 private:
  std::vector<std::string_view> entries_;
  NameTable table_;
};

class DictReader {
 public:
  Status ReadFrom(Decoder* dec) {
    uint64_t count = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&count));
    // Every entry costs at least its length byte, so a count past the
    // remaining bytes is corrupt before any allocation happens.
    if (count > dec->remaining()) {
      return Status::Corruption("columnar dictionary count past frame end");
    }
    entries_.reserve(static_cast<size_t>(count));
    Bytes raw;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t len = 0;
      PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&len));
      PROVLEDGER_RETURN_NOT_OK(dec->GetRaw(static_cast<size_t>(len), &raw));
      entries_.emplace_back(raw.begin(), raw.end());
    }
    return Status::OK();
  }

  Status At(uint64_t id, const std::string** out) const {
    if (id >= entries_.size()) {
      return Status::Corruption("columnar dictionary reference out of range");
    }
    *out = &entries_[id];
    return Status::OK();
  }

 private:
  std::vector<std::string> entries_;
};

/// Head length of `s` after splitting off its trailing digit run.
size_t IdHeadLength(std::string_view s) {
  size_t head = s.size();
  while (head > 0 && s[head - 1] >= '0' && s[head - 1] <= '9') --head;
  if (s.size() - head > kMaxDigits) head = s.size() - kMaxDigits;
  return head;
}

/// One id column: dict(head) + digit width + zigzag delta of the numeric
/// suffix against the column's previous value. Ids in a batch typically
/// share the head and step the suffix, so steady state costs ~3 bytes.
class IdColumnEncoder {
 public:
  explicit IdColumnEncoder(DictBuilder* dict) : dict_(dict) {}

  void Put(Encoder* cols, std::string_view s) {
    const size_t head = IdHeadLength(s);
    const size_t width = s.size() - head;
    cols->PutUVarint(dict_->Intern(s.substr(0, head)));
    cols->PutU8(static_cast<uint8_t>(width));
    if (width == 0) return;
    uint64_t value = 0;
    for (size_t i = head; i < s.size(); ++i) {
      value = value * 10 + static_cast<uint64_t>(s[i] - '0');
    }
    cols->PutSVarint(static_cast<int64_t>(value - prev_));
    prev_ = value;
  }

 private:
  DictBuilder* dict_;
  uint64_t prev_ = 0;
};

class IdColumnDecoder {
 public:
  explicit IdColumnDecoder(const DictReader* dict) : dict_(dict) {}

  Status Get(Decoder* dec, std::string* out) {
    uint64_t head_id = 0;
    uint8_t width = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&head_id));
    const std::string* head = nullptr;
    PROVLEDGER_RETURN_NOT_OK(dict_->At(head_id, &head));
    PROVLEDGER_RETURN_NOT_OK(dec->GetU8(&width));
    if (width > kMaxDigits) {
      return Status::Corruption("columnar id digit width out of range");
    }
    *out = *head;
    if (width == 0) return Status::OK();
    int64_t delta = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetSVarint(&delta));
    const uint64_t value = prev_ + static_cast<uint64_t>(delta);
    char digits[kMaxDigits + 1];
    const int printed = std::snprintf(digits, sizeof(digits), "%0*llu",
                                      static_cast<int>(width),
                                      static_cast<unsigned long long>(value));
    if (printed != static_cast<int>(width)) {
      return Status::Corruption("columnar id suffix does not fit its width");
    }
    prev_ = value;
    out->append(digits, width);
    return Status::OK();
  }

 private:
  const DictReader* dict_;
  uint64_t prev_ = 0;
};

/// One record of a batch as views. Its inputs, outputs and field pairs
/// (key, value, key, value, ...) follow each other in the batch's one
/// `lists` array, starting at `first`.
struct RowView {
  std::string_view record_id;
  std::string_view operation;
  std::string_view subject;
  std::string_view agent;
  uint8_t domain = 0;
  Timestamp timestamp = 0;
  uint32_t first = 0;
  uint32_t inputs = 0;
  uint32_t outputs = 0;
  uint32_t fields = 0;
  const uint8_t* payload_hash = nullptr;
};

/// ProvenanceRecord::Decode rule for rule, on views: bounds-checked
/// u32-length strings, a known domain byte, counts bounded by the bytes
/// left (4 per list entry, 8 per field), strictly increasing field keys
/// (string_view orders like std::string), a 32-byte payload hash, then the
/// end of the payload. Appends the row's list entries to `lists`.
Status ParseRecord(const Bytes& payload, RowView* row,
                   std::vector<std::string_view>* lists) {
  Decoder dec(payload);
  PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&row->record_id));
  PROVLEDGER_RETURN_NOT_OK(dec.GetU8(&row->domain));
  if (row->domain > static_cast<uint8_t>(Domain::kMachineLearning)) {
    return Status::Corruption("unknown domain byte");
  }
  PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&row->operation));
  PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&row->subject));
  PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&row->agent));
  PROVLEDGER_RETURN_NOT_OK(dec.GetI64(&row->timestamp));
  for (uint32_t* count : {&row->inputs, &row->outputs}) {
    PROVLEDGER_RETURN_NOT_OK(dec.GetU32(count));
    if (*count > dec.remaining() / 4) {
      return Status::Corruption("record list count exceeds payload");
    }
    for (uint32_t i = 0; i < *count; ++i) {
      PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&lists->emplace_back()));
    }
  }
  PROVLEDGER_RETURN_NOT_OK(dec.GetU32(&row->fields));
  if (row->fields > dec.remaining() / 8) {
    return Status::Corruption("record fields count exceeds payload");
  }
  for (uint32_t i = 0; i < row->fields; ++i) {
    std::string_view key;
    PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&key));
    // The previous key sits two entries back, before its value.
    if (i > 0 && key <= (*lists)[lists->size() - 2]) {
      return Status::Corruption("record field keys not strictly increasing");
    }
    lists->push_back(key);
    PROVLEDGER_RETURN_NOT_OK(dec.GetStringView(&lists->emplace_back()));
  }
  row->payload_hash = payload.data() + dec.position();
  PROVLEDGER_RETURN_NOT_OK(dec.Skip(crypto::kSha256DigestSize));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after provenance record");
  }
  return Status::OK();
}

/// The records of one batch as rows of views into transaction payloads or
/// the caller's records, which outlive the encode call.
struct RecordRows {
  std::vector<RowView> rows;
  std::vector<std::string_view> lists;

  /// Add a row viewing `payload` when it is exactly the bytes
  /// ProvenanceRecord::Decode accepts (and so the canonical encoding of the
  /// record it decodes to); otherwise return false and leave the batch as
  /// it was.
  bool AddPayload(const Bytes& payload) {
    RowView row;
    row.first = static_cast<uint32_t>(lists.size());
    if (!ParseRecord(payload, &row, &lists).ok()) {
      lists.resize(row.first);
      return false;
    }
    rows.push_back(row);
    return true;
  }

  void AddRecord(const ProvenanceRecord& rec) {
    RowView row;
    row.record_id = rec.record_id;
    row.operation = rec.operation;
    row.subject = rec.subject;
    row.agent = rec.agent;
    row.domain = static_cast<uint8_t>(rec.domain);
    row.timestamp = rec.timestamp;
    row.first = static_cast<uint32_t>(lists.size());
    row.inputs = static_cast<uint32_t>(rec.inputs.size());
    row.outputs = static_cast<uint32_t>(rec.outputs.size());
    row.fields = static_cast<uint32_t>(rec.fields.size());
    row.payload_hash = rec.payload_hash.data();
    lists.insert(lists.end(), rec.inputs.begin(), rec.inputs.end());
    lists.insert(lists.end(), rec.outputs.begin(), rec.outputs.end());
    for (const auto& [key, value] : rec.fields) {
      lists.push_back(key);
      lists.push_back(value);
    }
    rows.push_back(row);
  }
};

/// Emit every record column (in the order documented in the header) into
/// `cols`, interning strings into `dict`.
void EncodeRecordColumns(const RecordRows& batch, DictBuilder* dict,
                         Encoder* cols) {
  const std::vector<RowView>& rows = batch.rows;
  IdColumnEncoder ids(dict);
  for (const auto& r : rows) ids.Put(cols, r.record_id);
  for (const auto& r : rows) cols->PutU8(r.domain);
  for (const auto& r : rows) cols->PutUVarint(dict->Intern(r.operation));
  IdColumnEncoder subjects(dict);
  for (const auto& r : rows) subjects.Put(cols, r.subject);
  IdColumnEncoder agents(dict);
  for (const auto& r : rows) agents.Put(cols, r.agent);
  uint64_t prev_ts = 0;
  for (const auto& r : rows) {
    const uint64_t ts = static_cast<uint64_t>(r.timestamp);
    cols->PutSVarint(static_cast<int64_t>(ts - prev_ts));
    prev_ts = ts;
  }
  IdColumnEncoder inputs(dict);
  for (const auto& r : rows) {
    cols->PutUVarint(r.inputs);
    const std::string_view* list = batch.lists.data() + r.first;
    for (uint32_t i = 0; i < r.inputs; ++i) inputs.Put(cols, list[i]);
  }
  IdColumnEncoder outputs(dict);
  for (const auto& r : rows) {
    cols->PutUVarint(r.outputs);
    const std::string_view* list = batch.lists.data() + r.first + r.inputs;
    for (uint32_t i = 0; i < r.outputs; ++i) outputs.Put(cols, list[i]);
  }
  // Field schemas: the ordered key-id list of a record's field map,
  // interned on first sight (schema ref == table size announces a new
  // schema, whose definition follows inline). IoT batches share one
  // schema, so per record only the value refs remain.
  std::vector<std::vector<uint64_t>> schemas;
  std::vector<uint64_t> schema;
  for (const auto& r : rows) {
    const std::string_view* pairs =
        batch.lists.data() + r.first + r.inputs + r.outputs;
    schema.clear();
    for (uint32_t i = 0; i < r.fields; ++i) {
      schema.push_back(dict->Intern(pairs[2 * i]));
    }
    size_t schema_id = 0;
    while (schema_id < schemas.size() && schemas[schema_id] != schema) {
      ++schema_id;
    }
    cols->PutUVarint(schema_id);
    if (schema_id == schemas.size()) {
      cols->PutUVarint(schema.size());
      for (uint64_t key_id : schema) cols->PutUVarint(key_id);
      schemas.push_back(schema);
    }
    for (uint32_t i = 0; i < r.fields; ++i) {
      cols->PutUVarint(dict->Intern(pairs[2 * i + 1]));
    }
  }
  const crypto::Digest zero = crypto::ZeroDigest();
  for (const auto& r : rows) {
    const bool is_zero =
        std::memcmp(r.payload_hash, zero.data(), zero.size()) == 0;
    cols->PutU8(is_zero ? 0 : 1);
    if (!is_zero) cols->PutRaw(r.payload_hash, zero.size());
  }
}

Status DecodeRecordColumns(Decoder* dec, const DictReader& dict, size_t n,
                           std::vector<ProvenanceRecord>* out) {
  out->resize(n);
  std::vector<ProvenanceRecord>& recs = *out;
  IdColumnDecoder ids(&dict);
  for (auto& r : recs) PROVLEDGER_RETURN_NOT_OK(ids.Get(dec, &r.record_id));
  for (auto& r : recs) {
    uint8_t domain_byte = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetU8(&domain_byte));
    if (domain_byte > static_cast<uint8_t>(Domain::kMachineLearning)) {
      return Status::Corruption("unknown domain byte in columnar batch");
    }
    r.domain = static_cast<Domain>(domain_byte);
  }
  const std::string* s = nullptr;
  for (auto& r : recs) {
    uint64_t ref = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&ref));
    PROVLEDGER_RETURN_NOT_OK(dict.At(ref, &s));
    r.operation = *s;
  }
  IdColumnDecoder subjects(&dict);
  for (auto& r : recs) {
    PROVLEDGER_RETURN_NOT_OK(subjects.Get(dec, &r.subject));
  }
  IdColumnDecoder agents(&dict);
  for (auto& r : recs) PROVLEDGER_RETURN_NOT_OK(agents.Get(dec, &r.agent));
  uint64_t prev_ts = 0;
  for (auto& r : recs) {
    int64_t delta = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetSVarint(&delta));
    prev_ts += static_cast<uint64_t>(delta);
    r.timestamp = static_cast<Timestamp>(prev_ts);
  }
  IdColumnDecoder inputs(&dict);
  for (auto& r : recs) {
    uint64_t count = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&count));
    if (count > dec->remaining()) {
      return Status::Corruption("columnar inputs count past frame end");
    }
    r.inputs.resize(static_cast<size_t>(count));
    for (auto& in : r.inputs) PROVLEDGER_RETURN_NOT_OK(inputs.Get(dec, &in));
  }
  IdColumnDecoder outputs(&dict);
  for (auto& r : recs) {
    uint64_t count = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&count));
    if (count > dec->remaining()) {
      return Status::Corruption("columnar outputs count past frame end");
    }
    r.outputs.resize(static_cast<size_t>(count));
    for (auto& o : r.outputs) PROVLEDGER_RETURN_NOT_OK(outputs.Get(dec, &o));
  }
  std::vector<std::vector<uint64_t>> schemas;
  for (auto& r : recs) {
    uint64_t schema_id = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&schema_id));
    if (schema_id > schemas.size()) {
      return Status::Corruption("columnar schema reference out of range");
    }
    if (schema_id == schemas.size()) {
      uint64_t key_count = 0;
      PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&key_count));
      if (key_count > dec->remaining()) {
        return Status::Corruption("columnar schema key count past frame end");
      }
      std::vector<uint64_t> schema(static_cast<size_t>(key_count));
      for (auto& key_id : schema) {
        PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&key_id));
      }
      schemas.push_back(std::move(schema));
    }
    const std::string* value = nullptr;
    for (uint64_t key_id : schemas[static_cast<size_t>(schema_id)]) {
      PROVLEDGER_RETURN_NOT_OK(dict.At(key_id, &s));
      uint64_t value_ref = 0;
      PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&value_ref));
      PROVLEDGER_RETURN_NOT_OK(dict.At(value_ref, &value));
      if (!r.fields.emplace(*s, *value).second) {
        return Status::Corruption("duplicate field key in columnar schema");
      }
    }
  }
  for (auto& r : recs) {
    uint8_t flag = 0;
    PROVLEDGER_RETURN_NOT_OK(dec->GetU8(&flag));
    if (flag == 0) {
      r.payload_hash = crypto::ZeroDigest();
    } else if (flag == 1) {
      PROVLEDGER_RETURN_NOT_OK(
          dec->GetRaw(r.payload_hash.size(), r.payload_hash.data()));
    } else {
      return Status::Corruption("bad payload-hash flag in columnar batch");
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeRecordBatch(const std::vector<ProvenanceRecord>& records,
                       Encoder* enc) {
  enc->PutUVarint(records.size());
  if (records.empty()) return;
  RecordRows batch;
  batch.rows.reserve(records.size());
  for (const auto& r : records) batch.AddRecord(r);
  DictBuilder dict;
  Encoder cols;
  EncodeRecordColumns(batch, &dict, &cols);
  dict.EmitTo(enc);
  enc->PutRaw(cols.buffer());
}

Bytes EncodeRecordBatch(const std::vector<ProvenanceRecord>& records) {
  Encoder enc;
  EncodeRecordBatch(records, &enc);
  return enc.TakeBuffer();
}

Status DecodeRecordBatch(Decoder* dec, std::vector<ProvenanceRecord>* out) {
  out->clear();
  uint64_t n = 0;
  PROVLEDGER_RETURN_NOT_OK(dec->GetUVarint(&n));
  if (n == 0) return Status::OK();
  // The domain column alone costs one byte per record, so any count past
  // the remaining bytes is corrupt before the resize below.
  if (n > dec->remaining()) {
    return Status::Corruption("columnar record count past frame end");
  }
  DictReader dict;
  PROVLEDGER_RETURN_NOT_OK(dict.ReadFrom(dec));
  return DecodeRecordColumns(dec, dict, static_cast<size_t>(n), out);
}

Result<std::vector<ProvenanceRecord>> DecodeRecordBatch(const Bytes& data) {
  Decoder dec(data);
  std::vector<ProvenanceRecord> records;
  PROVLEDGER_RETURN_NOT_OK(DecodeRecordBatch(&dec, &records));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after columnar record batch");
  }
  return records;
}

bool IsColumnarBlock(const Bytes& payload) {
  return payload.size() >= sizeof(kBlockMagic) &&
         std::memcmp(payload.data(), kBlockMagic, sizeof(kBlockMagic)) == 0;
}

Bytes EncodeBlock(const ledger::Block& block) {
  Encoder enc;
  enc.PutRaw(kBlockMagic, sizeof(kBlockMagic));
  block.header.EncodeTo(&enc);
  enc.PutUVarint(block.transactions.size());

  // Partition transactions: a payload that parses as a canonical record
  // encoding goes through the record columns (the parse accepts exactly
  // the bytes ProvenanceRecord::Decode accepts, and those are the
  // canonical encoding of what they decode to); anything else — foreign
  // tx types, non-canonical payloads — rides along raw.
  std::vector<uint8_t> flags(block.transactions.size(), 0);
  RecordRows records;
  records.rows.reserve(block.transactions.size());
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    flags[i] = records.AddPayload(block.transactions[i].payload) ? 1 : 0;
  }

  DictBuilder dict;
  Encoder cols;
  for (uint8_t flag : flags) cols.PutU8(flag);
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    if (flags[i] == 0) block.transactions[i].EncodeTo(&cols);
  }
  // Transaction columns for the record-carrying majority: type/channel are
  // dict hits, timestamps/nonces are near-monotonic deltas, and the
  // sender/signature bytes (empty for system transactions) are raw.
  uint64_t prev_ts = 0;
  uint64_t prev_nonce = 0;
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    if (flags[i] == 0) continue;
    const ledger::Transaction& tx = block.transactions[i];
    cols.PutUVarint(dict.Intern(tx.type));
    cols.PutUVarint(dict.Intern(tx.channel));
    const uint64_t ts = static_cast<uint64_t>(tx.timestamp);
    cols.PutSVarint(static_cast<int64_t>(ts - prev_ts));
    prev_ts = ts;
    cols.PutSVarint(static_cast<int64_t>(tx.nonce - prev_nonce));
    prev_nonce = tx.nonce;
    cols.PutUVarint(tx.sender.size());
    cols.PutRaw(tx.sender);
    cols.PutUVarint(tx.signature.size());
    cols.PutRaw(tx.signature);
  }
  EncodeRecordColumns(records, &dict, &cols);

  dict.EmitTo(&enc);
  enc.PutRaw(cols.buffer());
  return enc.TakeBuffer();
}

Result<ledger::Block> DecodeBlock(const Bytes& payload) {
  if (!IsColumnarBlock(payload)) return ledger::Block::Decode(payload);
  Decoder dec(payload, sizeof(kBlockMagic));
  ledger::Block block;
  PROVLEDGER_ASSIGN_OR_RETURN(block.header,
                              ledger::BlockHeader::DecodeFrom(&dec));
  uint64_t n = 0;
  PROVLEDGER_RETURN_NOT_OK(dec.GetUVarint(&n));
  if (n > dec.remaining()) {
    return Status::Corruption("columnar block tx count past frame end");
  }
  DictReader dict;
  PROVLEDGER_RETURN_NOT_OK(dict.ReadFrom(&dec));

  std::vector<uint8_t> flags(static_cast<size_t>(n), 0);
  size_t columnar_count = 0;
  for (auto& flag : flags) {
    PROVLEDGER_RETURN_NOT_OK(dec.GetU8(&flag));
    if (flag > 1) {
      return Status::Corruption("bad transaction flag in columnar block");
    }
    columnar_count += flag;
  }
  block.transactions.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] == 0) {
      PROVLEDGER_ASSIGN_OR_RETURN(block.transactions[i],
                                  ledger::Transaction::DecodeFrom(&dec));
    }
  }
  struct TxMeta {
    const std::string* type;
    const std::string* channel;
    Timestamp timestamp;
    uint64_t nonce;
    Bytes sender;
    Bytes signature;
  };
  std::vector<TxMeta> metas(columnar_count);
  uint64_t prev_ts = 0;
  uint64_t prev_nonce = 0;
  for (auto& meta : metas) {
    uint64_t ref = 0;
    PROVLEDGER_RETURN_NOT_OK(dec.GetUVarint(&ref));
    PROVLEDGER_RETURN_NOT_OK(dict.At(ref, &meta.type));
    PROVLEDGER_RETURN_NOT_OK(dec.GetUVarint(&ref));
    PROVLEDGER_RETURN_NOT_OK(dict.At(ref, &meta.channel));
    int64_t delta = 0;
    PROVLEDGER_RETURN_NOT_OK(dec.GetSVarint(&delta));
    prev_ts += static_cast<uint64_t>(delta);
    meta.timestamp = static_cast<Timestamp>(prev_ts);
    PROVLEDGER_RETURN_NOT_OK(dec.GetSVarint(&delta));
    prev_nonce += static_cast<uint64_t>(delta);
    meta.nonce = prev_nonce;
    uint64_t len = 0;
    PROVLEDGER_RETURN_NOT_OK(dec.GetUVarint(&len));
    PROVLEDGER_RETURN_NOT_OK(dec.GetRaw(static_cast<size_t>(len),
                                        &meta.sender));
    PROVLEDGER_RETURN_NOT_OK(dec.GetUVarint(&len));
    PROVLEDGER_RETURN_NOT_OK(dec.GetRaw(static_cast<size_t>(len),
                                        &meta.signature));
  }
  std::vector<ProvenanceRecord> records;
  PROVLEDGER_RETURN_NOT_OK(
      DecodeRecordColumns(&dec, dict, columnar_count, &records));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after columnar block");
  }
  size_t next = 0;
  for (size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] == 0) continue;
    ledger::Transaction& tx = block.transactions[i];
    TxMeta& meta = metas[next];
    tx.type = *meta.type;
    tx.channel = *meta.channel;
    tx.payload = records[next].Encode();
    tx.timestamp = meta.timestamp;
    tx.nonce = meta.nonce;
    tx.sender = std::move(meta.sender);
    tx.signature = std::move(meta.signature);
    ++next;
  }
  return block;
}

}  // namespace columnar
}  // namespace prov
}  // namespace provledger
