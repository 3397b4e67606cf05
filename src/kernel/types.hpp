#pragma once

#include <cstdint>
#include <vector>

namespace sg::kernel {

/// Identifier for a simulated thread.
using ThreadId = int;

/// Identifier for a component (protection domain).
using CompId = int;

/// Index of an exported function in its component's handler table
/// (Component::resolve). Indices are dense from 0 in export order and stay
/// valid for the component's life, across replace_fn and micro-reboots.
using FnIndex = std::int32_t;

/// Numeric priority; *smaller is more urgent* (priority 0 preempts priority 5).
using Priority = int;

/// Virtual time in microseconds. The kernel advances it on invocations and
/// when every thread is blocked (event-driven jump to the next deadline).
using VirtualTime = std::uint64_t;

/// The uniform word type crossing component boundaries. COMPOSITE invocations
/// pass register-sized words; bulk data travels through the zero-copy cbuf
/// subsystem, so a single integral type is faithful to the substrate.
using Value = std::int64_t;

using Args = std::vector<Value>;

inline constexpr ThreadId kNoThread = -1;
inline constexpr CompId kNoComp = -1;
inline constexpr FnIndex kNoFnIndex = -1;

/// Error codes returned by system components over their interfaces (negative
/// to distinguish from valid descriptors/values, mirroring POSIX style).
inline constexpr Value kOk = 0;
inline constexpr Value kErrInval = -22;   ///< EINVAL: unknown descriptor (triggers G0 recovery).
inline constexpr Value kErrNoMem = -12;   ///< ENOMEM.
inline constexpr Value kErrNoEnt = -2;    ///< ENOENT: no such file/path.
inline constexpr Value kErrExist = -17;   ///< EEXIST.
inline constexpr Value kErrAgain = -11;   ///< EAGAIN.

}  // namespace sg::kernel
