#pragma once

#include <string>

#include "kernel/fault.hpp"
#include "kernel/kernel.hpp"

namespace sg::components {

/// Raw invocation between *system* components (e.g., the lock component
/// blocking a thread through the scheduler). System components do not carry
/// full interface stubs for their own servers in this implementation; they
/// use this bounded redo loop — the moral equivalent of the thin stubs C3
/// places on the component-kernel interface. `fn` is the server's handler
/// index, resolved once when the component is wired.
inline kernel::Value sys_invoke(kernel::Kernel& kernel, kernel::CompId client,
                                kernel::CompId server, kernel::FnIndex fn,
                                const kernel::Args& args) {
  constexpr int kMaxRedos = 8;
  for (int redo = 0; redo < kMaxRedos; ++redo) {
    const kernel::InvokeResult res = kernel.invoke(client, server, fn, args);
    if (!res.fault) return res.ret;
  }
  throw kernel::SystemCrash(kernel::CrashKind::kDoubleFault, server,
                            "sys_invoke redo limit: " + kernel.component(server).fn_name(fn));
}

}  // namespace sg::components
