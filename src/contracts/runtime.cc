#include "contracts/runtime.h"

namespace provledger {
namespace contracts {

ContractContext::ContractContext(const std::string& contract,
                                 const std::string& caller, Timestamp now,
                                 storage::MemKvStore* state,
                                 const GasSchedule& schedule,
                                 uint64_t gas_limit)
    : contract_(contract),
      caller_(caller),
      now_(now),
      state_(state),
      schedule_(schedule),
      gas_limit_(gas_limit) {}

std::string ContractContext::Namespaced(const std::string& key) const {
  return "contract/" + contract_ + "/" + key;
}

Status ContractContext::Charge(uint64_t amount) {
  gas_used_ += amount;
  if (gas_used_ > gas_limit_) {
    return Status::ResourceExhausted("gas limit exceeded");
  }
  return Status::OK();
}

Result<Bytes> ContractContext::GetState(const std::string& key) {
  PROVLEDGER_RETURN_NOT_OK(Charge(schedule_.read_cost));
  const std::string k = Namespaced(key);
  auto overlay_it = overlay_.find(k);
  if (overlay_it != overlay_.end()) {
    if (!overlay_it->second.has_value()) {
      return Status::NotFound("key deleted in this invocation: " + key);
    }
    return *overlay_it->second;
  }
  return state_->Get(k);
}

Status ContractContext::PutState(const std::string& key, Bytes value) {
  PROVLEDGER_RETURN_NOT_OK(Charge(schedule_.write_cost));
  overlay_[Namespaced(key)] = std::move(value);
  return Status::OK();
}

Status ContractContext::PutState(const std::string& key,
                                 const std::string& value) {
  return PutState(key, ToBytes(value));
}

Status ContractContext::DeleteState(const std::string& key) {
  PROVLEDGER_RETURN_NOT_OK(Charge(schedule_.write_cost));
  overlay_[Namespaced(key)] = std::nullopt;
  return Status::OK();
}

Status ContractContext::EmitEvent(const std::string& name,
                                  const std::string& data) {
  PROVLEDGER_RETURN_NOT_OK(Charge(schedule_.event_cost));
  events_.push_back(Event{contract_, name, data, now_});
  return Status::OK();
}

Status ContractContext::CommitTo(storage::MemKvStore* state) {
  storage::WriteBatch batch;
  for (const auto& [key, value] : overlay_) {
    if (value.has_value()) {
      batch.Put(key, *value);
    } else {
      batch.Delete(key);
    }
  }
  return state->Write(batch);
}

ContractRuntime::ContractRuntime(Clock* clock, GasSchedule schedule,
                                 uint64_t gas_limit)
    : clock_(clock), schedule_(schedule), gas_limit_(gas_limit) {}

Status ContractRuntime::Deploy(std::unique_ptr<Contract> contract) {
  const std::string name = contract->name();
  if (contracts_.count(name)) {
    return Status::AlreadyExists("contract already deployed: " + name);
  }
  contracts_.emplace(name, std::move(contract));
  return Status::OK();
}

bool ContractRuntime::IsDeployed(const std::string& name) const {
  return contracts_.count(name) > 0;
}

Result<InvokeReceipt> ContractRuntime::Invoke(const std::string& contract,
                                              const std::string& method,
                                              const Bytes& args,
                                              const std::string& caller) {
  auto it = contracts_.find(contract);
  if (it == contracts_.end()) {
    return Status::NotFound("contract not deployed: " + contract);
  }
  ContractContext ctx(contract, caller, clock_->NowMicros(), &state_,
                      schedule_, gas_limit_);
  PROVLEDGER_RETURN_NOT_OK(ctx.Charge(schedule_.base_cost));

  auto result = it->second->Invoke(&ctx, method, args);
  if (!result.ok()) return result.status();  // all state writes discarded

  PROVLEDGER_RETURN_NOT_OK(ctx.CommitTo(&state_));
  for (const auto& ev : ctx.events()) event_log_.push_back(ev);

  InvokeReceipt receipt;
  receipt.return_value = std::move(result).value();
  receipt.gas_used = ctx.gas_used();
  receipt.events = ctx.events();
  return receipt;
}

}  // namespace contracts
}  // namespace provledger
