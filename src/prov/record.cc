#include "prov/record.h"

namespace provledger {
namespace prov {

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kGeneric:
      return "generic";
    case Domain::kCloud:
      return "cloud";
    case Domain::kSupplyChain:
      return "supply_chain";
    case Domain::kForensics:
      return "forensics";
    case Domain::kScientific:
      return "scientific";
    case Domain::kHealthcare:
      return "healthcare";
    case Domain::kMachineLearning:
      return "machine_learning";
  }
  return "unknown";
}

const std::vector<std::string>& RequiredFields(Domain domain) {
  static const std::vector<std::string> kSupplyChain = {
      fields::kProductId,    fields::kBatchNumber,    fields::kMfgExpiry,
      fields::kTravelTrace,  fields::kProductType,    fields::kManufacturerId,
      fields::kQuickAccess};
  static const std::vector<std::string> kForensics = {
      fields::kCaseNumber,      fields::kInvestigationStage,
      fields::kCaseStartDate,   fields::kCaseClosureDate,
      fields::kFileTypes,       fields::kAccessPatterns,
      fields::kFilesDependency};
  static const std::vector<std::string> kScientific = {
      fields::kTaskId,    fields::kWorkflowId, fields::kExecutionTime,
      fields::kUserId,    fields::kInputData,  fields::kOutputData,
      fields::kInvalidatedResults};
  static const std::vector<std::string> kNone = {};
  switch (domain) {
    case Domain::kSupplyChain:
      return kSupplyChain;
    case Domain::kForensics:
      return kForensics;
    case Domain::kScientific:
      return kScientific;
    default:
      return kNone;
  }
}

void ProvenanceRecord::EncodeTo(Encoder* enc) const {
  enc->PutString(record_id);
  enc->PutU8(static_cast<uint8_t>(domain));
  enc->PutString(operation);
  enc->PutString(subject);
  enc->PutString(agent);
  enc->PutI64(timestamp);
  enc->PutU32(static_cast<uint32_t>(inputs.size()));
  for (const auto& in : inputs) enc->PutString(in);
  enc->PutU32(static_cast<uint32_t>(outputs.size()));
  for (const auto& out : outputs) enc->PutString(out);
  enc->PutU32(static_cast<uint32_t>(fields.size()));
  for (const auto& [key, value] : fields) {  // std::map: sorted, canonical
    enc->PutString(key);
    enc->PutString(value);
  }
  enc->PutRaw(payload_hash.data(), payload_hash.size());
}

Bytes ProvenanceRecord::Encode() const {
  Encoder enc;
  EncodeTo(&enc);
  return enc.TakeBuffer();
}

Result<ProvenanceRecord> ProvenanceRecord::DecodeFrom(Decoder* dec) {
  ProvenanceRecord rec;
  PROVLEDGER_RETURN_NOT_OK(dec->GetString(&rec.record_id));
  uint8_t domain_byte = 0;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU8(&domain_byte));
  if (domain_byte > static_cast<uint8_t>(Domain::kMachineLearning)) {
    return Status::Corruption("unknown domain byte");
  }
  rec.domain = static_cast<Domain>(domain_byte);
  PROVLEDGER_RETURN_NOT_OK(dec->GetString(&rec.operation));
  PROVLEDGER_RETURN_NOT_OK(dec->GetString(&rec.subject));
  PROVLEDGER_RETURN_NOT_OK(dec->GetString(&rec.agent));
  PROVLEDGER_RETURN_NOT_OK(dec->GetI64(&rec.timestamp));

  // Count prefixes are attacker-controlled: each remaining element costs at
  // least a u32 length prefix (4 bytes), so any count exceeding remaining/4
  // is corrupt — reject before sizing containers off it.
  uint32_t n = 0;
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&n));
  if (n > dec->remaining() / 4) {
    return Status::Corruption("record inputs count exceeds payload");
  }
  rec.inputs.resize(n);
  for (auto& in : rec.inputs) PROVLEDGER_RETURN_NOT_OK(dec->GetString(&in));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&n));
  if (n > dec->remaining() / 4) {
    return Status::Corruption("record outputs count exceeds payload");
  }
  rec.outputs.resize(n);
  for (auto& out : rec.outputs) PROVLEDGER_RETURN_NOT_OK(dec->GetString(&out));
  PROVLEDGER_RETURN_NOT_OK(dec->GetU32(&n));
  if (n > dec->remaining() / 8) {  // a field is two length-prefixed strings
    return Status::Corruption("record fields count exceeds payload");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string key, value;
    PROVLEDGER_RETURN_NOT_OK(dec->GetString(&key));
    PROVLEDGER_RETURN_NOT_OK(dec->GetString(&value));
    // The encoding is canonical (EncodeTo walks the map in key order), so a
    // decoder seeing out-of-order or duplicate keys is looking at bytes no
    // encoder produced. Accepting them would let two distinct byte strings
    // decode to records with the same Hash().
    if (!rec.fields.empty() && key <= rec.fields.rbegin()->first) {
      return Status::Corruption("record field keys not strictly increasing");
    }
    rec.fields.emplace(std::move(key), std::move(value));
  }
  PROVLEDGER_RETURN_NOT_OK(
      dec->GetRaw(rec.payload_hash.size(), rec.payload_hash.data()));
  return rec;
}

Result<ProvenanceRecord> ProvenanceRecord::Decode(const Bytes& data) {
  Decoder dec(data);
  PROVLEDGER_ASSIGN_OR_RETURN(ProvenanceRecord rec, DecodeFrom(&dec));
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after provenance record");
  }
  return rec;
}

crypto::Digest ProvenanceRecord::Hash() const {
  return crypto::Sha256::Hash(Encode());
}

Status ProvenanceRecord::Validate() const {
  if (record_id.empty()) {
    return Status::InvalidArgument("record_id must not be empty");
  }
  if (operation.empty()) {
    return Status::InvalidArgument("operation must not be empty");
  }
  if (subject.empty()) {
    return Status::InvalidArgument("subject must not be empty");
  }
  if (agent.empty()) {
    return Status::InvalidArgument("agent must not be empty");
  }
  for (const auto& key : RequiredFields(domain)) {
    if (!fields.count(key)) {
      return Status::InvalidArgument(
          std::string("missing required field for domain ") +
          DomainName(domain) + ": " + key);
    }
  }
  return Status::OK();
}

ProvenanceRecord MakeSupplyChainRecord(
    const std::string& record_id, const std::string& operation,
    const std::string& product_id, const std::string& agent,
    Timestamp timestamp, const std::string& batch, const std::string& expiry,
    const std::string& trace, const std::string& type,
    const std::string& manufacturer, const std::string& qr) {
  ProvenanceRecord rec;
  rec.record_id = record_id;
  rec.domain = Domain::kSupplyChain;
  rec.operation = operation;
  rec.subject = product_id;
  rec.agent = agent;
  rec.timestamp = timestamp;
  rec.fields[fields::kProductId] = product_id;
  rec.fields[fields::kBatchNumber] = batch;
  rec.fields[fields::kMfgExpiry] = expiry;
  rec.fields[fields::kTravelTrace] = trace;
  rec.fields[fields::kProductType] = type;
  rec.fields[fields::kManufacturerId] = manufacturer;
  rec.fields[fields::kQuickAccess] = qr;
  return rec;
}

ProvenanceRecord MakeForensicsRecord(
    const std::string& record_id, const std::string& operation,
    const std::string& evidence_id, const std::string& agent,
    Timestamp timestamp, const std::string& case_number,
    const std::string& stage, const std::string& start_date,
    const std::string& closure_date, const std::string& file_types,
    const std::string& access_patterns, const std::string& dependency) {
  ProvenanceRecord rec;
  rec.record_id = record_id;
  rec.domain = Domain::kForensics;
  rec.operation = operation;
  rec.subject = evidence_id;
  rec.agent = agent;
  rec.timestamp = timestamp;
  rec.fields[fields::kCaseNumber] = case_number;
  rec.fields[fields::kInvestigationStage] = stage;
  rec.fields[fields::kCaseStartDate] = start_date;
  rec.fields[fields::kCaseClosureDate] = closure_date;
  rec.fields[fields::kFileTypes] = file_types;
  rec.fields[fields::kAccessPatterns] = access_patterns;
  rec.fields[fields::kFilesDependency] = dependency;
  return rec;
}

ProvenanceRecord MakeScientificRecord(
    const std::string& record_id, const std::string& operation,
    const std::string& task_id, const std::string& agent, Timestamp timestamp,
    const std::string& workflow_id, const std::string& execution_time,
    const std::string& user_id, const std::string& input_data,
    const std::string& output_data, const std::string& invalidated) {
  ProvenanceRecord rec;
  rec.record_id = record_id;
  rec.domain = Domain::kScientific;
  rec.operation = operation;
  rec.subject = task_id;
  rec.agent = agent;
  rec.timestamp = timestamp;
  rec.fields[fields::kTaskId] = task_id;
  rec.fields[fields::kWorkflowId] = workflow_id;
  rec.fields[fields::kExecutionTime] = execution_time;
  rec.fields[fields::kUserId] = user_id;
  rec.fields[fields::kInputData] = input_data;
  rec.fields[fields::kOutputData] = output_data;
  rec.fields[fields::kInvalidatedResults] = invalidated;
  return rec;
}

}  // namespace prov
}  // namespace provledger
