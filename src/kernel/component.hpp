#pragma once

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernel/registers.hpp"
#include "kernel/types.hpp"

namespace sg::kernel {

class Kernel;
class Component;

/// Per-invocation context handed to every server handler. Carries the
/// identity of the invoking side (for descriptor namespacing and upcalls)
/// and access to the executing thread's simulated register file (for SWIFI).
struct CallCtx {
  Kernel& kernel;
  ThreadId thd;
  CompId client;  ///< Component the invocation came from (kNoComp for root).
  CompId server;  ///< Component whose handler is executing.

  RegisterFile& regs() const;

  /// Watchdog for server loops: call once per iteration with a bound; throws
  /// SystemCrash(kHang) when exceeded (models a latent-fault infinite loop).
  void loop_guard(std::size_t iteration, std::size_t bound) const;
};

/// A protection domain: private state plus a set of exported interface
/// functions. Hardware page-table isolation is modelled structurally — the
/// only way in or out is Kernel::invoke / Kernel::upcall, and a fault wipes
/// exactly this object's state (via reset_state) and nothing else.
class Component {
 public:
  using Handler = std::function<Value(CallCtx&, const Args&)>;

  /// Registers the component with the kernel; the kernel assigns the id.
  Component(Kernel& kernel, std::string name, std::size_t image_bytes = 16 * 1024);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  CompId id() const { return id_; }
  const std::string& name() const { return name_; }
  Kernel& kernel() const { return kernel_; }

  /// Size of the component's boot image; the booter memcpy()s this many bytes
  /// on micro-reboot so reboot cost scales realistically with image size.
  std::size_t image_bytes() const { return image_bytes_; }

  /// Exports an interface function under `fn_name`. Exported names form the
  /// component's interface I_{d_r} in the SuperGlue model. The handler gets
  /// the next dense FnIndex.
  void export_fn(const std::string& fn_name, Handler handler);

  /// Interposes on an already-exported function (used by server-side stubs to
  /// wrap handlers with G0 recovery logic). Returns the previous handler. The
  /// function keeps its FnIndex.
  Handler replace_fn(const std::string& fn_name, Handler handler);

  bool exports(const std::string& fn_name) const { return fn_index_.count(fn_name) != 0; }
  std::vector<std::string> exported_fns() const;

  /// Cold name lookup of the FnIndex callers cache and invoke by. An
  /// unexported name raises "<component> does not export <fn>".
  FnIndex resolve(const std::string& fn_name) const;
  const std::string& fn_name(FnIndex fn) const;

  /// Dispatches an exported function by index. Called only by the kernel.
  Value dispatch(CallCtx& ctx, FnIndex fn, const Args& args);

  /// --- micro-reboot protocol (driven by the booter) -----------------------
  /// Discards all private state, returning the component to its post-boot
  /// image. Must leave the component ready to serve requests (empty tables).
  virtual void reset_state() = 0;

  /// Step (4) of the recovery sequence: re-initialization upcall performed
  /// immediately after the image is restored, before any eager recovery.
  virtual void on_reboot(CallCtx& ctx) { (void)ctx; }

 protected:
  Kernel& kernel_;

 private:
  CompId id_;
  std::string name_;
  std::size_t image_bytes_;
  /// Indexed by FnIndex. A deque, so exporting (a client stub adds its U0
  /// upcall on first use) never moves a handler that is running.
  std::deque<Handler> handlers_;
  std::vector<std::string> fn_names_;  ///< Indexed by FnIndex.
  std::unordered_map<std::string, FnIndex> fn_index_;
};

}  // namespace sg::kernel
