// Deterministic smart-contract runtime (§2.1: "self-executing programs
// stored on the blockchain"). Contracts are C++ objects registered in a
// runtime; invocations are metered (gas), transactional (state mutations
// buffered and applied only on success), and emit events. The provenance
// layer anchors each invocation on the ledger so contract activity is itself
// provenance-tracked, as SmartProvenance and PrivChain require.
//
// Thread safety: NOT internally synchronized — single owner, or external
// locking around every call.

#ifndef PROVLEDGER_CONTRACTS_RUNTIME_H_
#define PROVLEDGER_CONTRACTS_RUNTIME_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "storage/kv_store.h"

namespace provledger {
namespace contracts {

/// \brief An event emitted during contract execution (PrivChain automates
/// incentive payouts off such events).
struct Event {
  std::string contract;
  std::string name;
  std::string data;
  Timestamp at = 0;
};

/// \brief Gas pricing: reads are cheap, writes and events cost more.
struct GasSchedule {
  uint64_t read_cost = 1;
  uint64_t write_cost = 10;
  uint64_t event_cost = 5;
  uint64_t base_cost = 10;
};

/// \brief Execution context handed to a contract method. All state access
/// goes through here so the runtime can meter gas and roll back on failure.
class ContractContext {
 public:
  ContractContext(const std::string& contract, const std::string& caller,
                  Timestamp now, storage::MemKvStore* state,
                  const GasSchedule& schedule, uint64_t gas_limit);

  /// Namespaced state read.
  Result<Bytes> GetState(const std::string& key);
  /// Namespaced, buffered state write (visible to later reads in the same
  /// invocation; durable only if the invocation succeeds).
  Status PutState(const std::string& key, Bytes value);
  Status PutState(const std::string& key, const std::string& value);
  Status DeleteState(const std::string& key);

  /// Emit an event.
  Status EmitEvent(const std::string& name, const std::string& data);

  const std::string& caller() const { return caller_; }
  Timestamp now() const { return now_; }
  uint64_t gas_used() const { return gas_used_; }

  /// Runtime internals.
  Status Charge(uint64_t amount);
  Status CommitTo(storage::MemKvStore* state);
  const std::vector<Event>& events() const { return events_; }

 private:
  std::string Namespaced(const std::string& key) const;

  std::string contract_;
  std::string caller_;
  Timestamp now_;
  storage::MemKvStore* state_;
  GasSchedule schedule_;
  uint64_t gas_limit_;
  uint64_t gas_used_ = 0;
  // Write overlay: key -> value (nullopt = deletion).
  std::map<std::string, std::optional<Bytes>> overlay_;
  std::vector<Event> events_;
};

/// \brief Base class for contracts.
class Contract {
 public:
  virtual ~Contract() = default;
  virtual std::string name() const = 0;
  /// Dispatch a method call. Returning non-OK rolls back all state writes.
  virtual Result<Bytes> Invoke(ContractContext* ctx, const std::string& method,
                               const Bytes& args) = 0;
};

/// \brief Result of a successful invocation.
struct InvokeReceipt {
  Bytes return_value;
  uint64_t gas_used = 0;
  std::vector<Event> events;
};

/// \brief Hosts registered contracts over a shared state store.
class ContractRuntime {
 public:
  explicit ContractRuntime(Clock* clock, GasSchedule schedule = GasSchedule(),
                           uint64_t gas_limit = 1'000'000);

  /// Register a contract under its name().
  Status Deploy(std::unique_ptr<Contract> contract);
  bool IsDeployed(const std::string& name) const;

  /// Invoke `contract.method(args)` as `caller`. State mutations are atomic
  /// with respect to failure.
  Result<InvokeReceipt> Invoke(const std::string& contract,
                               const std::string& method, const Bytes& args,
                               const std::string& caller);

  /// All events emitted by successful invocations, in order.
  const std::vector<Event>& event_log() const { return event_log_; }
  /// Direct (read-only) state access for tests and auditors.
  const storage::MemKvStore& state() const { return state_; }

 private:
  Clock* clock_;
  GasSchedule schedule_;
  uint64_t gas_limit_;
  storage::MemKvStore state_;
  std::map<std::string, std::unique_ptr<Contract>> contracts_;
  std::vector<Event> event_log_;
};

}  // namespace contracts
}  // namespace provledger

#endif  // PROVLEDGER_CONTRACTS_RUNTIME_H_
