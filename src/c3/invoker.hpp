#pragma once

#include <string>
#include <vector>

#include "c3/ids.hpp"
#include "kernel/kernel.hpp"

namespace sg::c3 {

/// Minimal invocation surface the typed client APIs program against. Three
/// implementations exist, matching the paper's evaluation variants:
///   - PassthroughInvoker : no fault tolerance (base COMPOSITE),
///   - c3stubs::*Stub     : hand-written C3 recovery stubs,
///   - c3::ClientStub     : SuperGlue-generated/interpreted stubs.
///
/// Callers resolve each function name once, when they bind to the invoker
/// (`resolve`), and invoke by the returned dense id (`call_id`) from then
/// on, so no string is hashed on the per-invocation path.
class Invoker {
 public:
  virtual ~Invoker() = default;

  /// Interns `fn` into this invoker's id space.
  virtual FnId resolve(const std::string& fn) = 0;

  /// Invokes by interned id. `id` must come from this invoker's resolve().
  virtual kernel::Value call_id(FnId id, const kernel::Args& args) = 0;
};

/// Direct kernel invocation with no tracking and no recovery. A server fault
/// surfaces as a plain error return (the system would normally have to
/// reboot); used as the "COMPOSITE without C3/SuperGlue" baseline. Its ids
/// are the server's handler indices, so call_id dispatches by index.
class PassthroughInvoker final : public Invoker {
 public:
  PassthroughInvoker(kernel::Kernel& kernel, kernel::CompId client, kernel::CompId server)
      : kernel_(kernel), client_(client), server_(server) {}

  FnId resolve(const std::string& fn) override { return kernel_.component(server_).resolve(fn); }

  kernel::Value call_id(FnId id, const kernel::Args& args) override {
    return result(kernel_.invoke(client_, server_, static_cast<kernel::FnIndex>(id), args));
  }

 private:
  static kernel::Value result(const kernel::InvokeResult& res) {
    return res.fault ? kernel::kErrAgain : res.ret;
  }

  kernel::Kernel& kernel_;
  kernel::CompId client_;
  kernel::CompId server_;
};

}  // namespace sg::c3
