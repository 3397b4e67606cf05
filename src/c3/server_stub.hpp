#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "c3/interface_spec.hpp"
#include "c3/storage.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"

namespace sg::c3 {

/// The generated *server-side* interface stub. Its job is the G0 mechanism
/// (§III-C): when a post-reboot server returns EINVAL because a global
/// descriptor is missing, the stub queries the storage component for the
/// descriptor's creator, upcalls into that component to recreate it (U0/R0),
/// and then replays the original invocation.
///
/// Installed by interposing on the server component's exported handlers, so
/// the logic runs "in" the server's protection domain like real stub code.
class ServerStub {
 public:
  ServerStub(kernel::Kernel& kernel, kernel::Component& server, const InterfaceSpec& spec,
             StorageComponent& storage);

  ServerStub(const ServerStub&) = delete;
  ServerStub& operator=(const ServerStub&) = delete;

  std::uint64_t g0_recoveries() const { return g0_recoveries_; }
  std::uint64_t g0_misses() const { return g0_misses_; }
  std::uint64_t degraded_misses() const { return degraded_misses_; }

  /// Fires when a G0 record *was found* but the recreation upcall failed —
  /// the substrate had the answer yet recovery still could not use it. This
  /// (unlike a plain miss, which legitimately means "descriptor never
  /// existed") marks the episode's recovery as degraded.
  using DegradedHook = std::function<void(const char* service)>;
  void set_degraded_hook(DegradedHook hook) { degraded_hook_ = std::move(hook); }

 private:
  /// U0: upcalls the creator's recreation function for `desc_id`, by the
  /// handler index cached per creator component.
  kernel::InvokeResult recreate_upcall(kernel::CompId creator, kernel::Value desc_id);

  kernel::Kernel& kernel_;
  kernel::Component& server_;
  const InterfaceSpec& spec_;
  StorageComponent& storage_;
  NsId ns_ = kNoNs;  ///< Interned storage namespace for the service.
  std::string recreate_fn_;  ///< The creators' U0 upcall name.
  /// Creator component -> its recreate_fn_ handler index. Touched only from
  /// handlers of the wrapped server, which occupancy serializes at cores>1.
  std::unordered_map<kernel::CompId, kernel::FnIndex> recreate_fns_;
  std::uint64_t g0_recoveries_ = 0;
  std::uint64_t g0_misses_ = 0;
  std::uint64_t degraded_misses_ = 0;
  DegradedHook degraded_hook_;
};

}  // namespace sg::c3
